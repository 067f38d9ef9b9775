package repro.baselines

import repro.cliques.{CliqueEncoding, Intersect, RecListCliques}
import repro.core.{IntBuffer, Util}
import repro.graph.{CSRGraph, DirectedGraph, Orientation}

/** Dense r-clique index shared by the reimplemented comparators (ND, PND,
  * AND, AND-NN). Assigns each r-clique an id 0..num−1 via a sorted array of
  * packed keys (binary search lookup). All baselines share this substrate
  * and our clique-listing code, so measured differences isolate the peeling
  * strategies themselves — the quantities the paper compares (rounds,
  * s-clique discoveries) rather than unrelated implementation details.
  */
final class CliqueIndex(val g: CSRGraph, val r: Int) {
  val dg: DirectedGraph = Orientation.orient(g)
  val enc = new CliqueEncoding(g.n)
  require(enc.fits(r), s"CliqueIndex needs packed keys: r=$r over n=${g.n} does not fit 62 bits")

  /** Sorted packed keys; position == clique id. */
  val keys: Array[Long] = {
    val buffers = new java.util.concurrent.ConcurrentLinkedQueue[IntBuffer]()
    RecListCliques.foreachClique(dg, r) { () =>
      val buf = new IntBuffer(1024)
      buffers.add(buf)
      val tmp = new Array[Int](r)
      clique => {
        System.arraycopy(clique, 0, tmp, 0, r)
        Util.insertionSort(tmp, r)
        var i = 0
        while (i < r) { buf += tmp(i); i += 1 }
      }
    }
    import scala.jdk.CollectionConverters._
    val all = buffers.asScala.toArray
    val total = all.map(_.size).sum
    val ks = new Array[Long](total / r)
    var w = 0
    all.foreach { b =>
      var i = 0
      while (i < b.size) {
        ks(w) = enc.pack(b.unsafeArray, i, r)
        w += 1
        i += r
      }
    }
    java.util.Arrays.sort(ks)
    ks
  }

  def num: Int = keys.length

  def idOf(vsSorted: Array[Int]): Int = {
    val key = enc.pack(vsSorted, 0, r)
    val i = java.util.Arrays.binarySearch(keys, key)
    if (i >= 0) i else -1
  }

  def vertsOf(id: Int, out: Array[Int]): Unit = enc.unpack(keys(id), r, out, 0)

  /** Initial s-clique counts per r-clique id; also returns the total number
    * of s-cliques.
    */
  def countScliques(s: Int): (Array[Int], Long) = {
    val counts = new java.util.concurrent.atomic.AtomicIntegerArray(num)
    val combos = Util.combinations(s, r)
    RecListCliques.foreachClique(dg, s) { () =>
      val sBuf = new Array[Int](s)
      val subBuf = new Array[Int](r)
      clique => {
        System.arraycopy(clique, 0, sBuf, 0, s)
        Util.insertionSort(sBuf, s)
        var j = 0
        while (j < combos.length) {
          var t = 0
          while (t < r) { subBuf(t) = sBuf(combos(j)(t)); t += 1 }
          counts.incrementAndGet(idOf(subBuf))
          j += 1
        }
      }
    }
    // exact total from the counts themselves (each s-clique contributes
    // exactly C(s,r) increments)
    var sum = 0L
    var i = 0
    while (i < num) { sum += counts.get(i); i += 1 }
    val arr = new Array[Int](num)
    i = 0
    while (i < num) { arr(i) = counts.get(i); i += 1 }
    (arr, if (combos.isEmpty) 0L else sum / combos.length)
  }

  /** Enumerates the s-cliques containing r-clique `id` whose subsets pass
    * `aliveSubset` filtering decisions to the caller: for each s-clique,
    * `f` receives the ids of all C(s,r) r-subsets (including `id` itself)
    * in a reused buffer. Returns the number of s-cliques enumerated
    * (the "s-clique discoveries" work metric).
    */
  def foreachIncidentSclique(id: Int, s: Int, scratch: CliqueIndex.Scratch)(
      f: Array[Int] => Unit
  ): Long = {
    val vsR = scratch.vsR
    vertsOf(id, vsR)
    val iLen = Intersect.commonNeighbors(g, vsR, r, scratch.iBuf)
    val need = s - r
    if (iLen < need) return 0L
    System.arraycopy(vsR, 0, scratch.cliqueBuf, 0, r)
    var found = 0L
    RecListCliques.foreachCompletion(dg, scratch.iBuf, iLen, need, scratch.cliqueBuf, r, scratch.compBufs) { cl =>
      found += 1
      System.arraycopy(cl, 0, scratch.sBuf, 0, s)
      Util.insertionSort(scratch.sBuf, s)
      var j = 0
      while (j < scratch.combos.length) {
        var t = 0
        while (t < r) { scratch.subBuf(t) = scratch.sBuf(scratch.combos(j)(t)); t += 1 }
        scratch.subsetIds(j) = idOf(scratch.subBuf)
        j += 1
      }
      f(scratch.subsetIds)
    }
    found
  }

  def newScratch(s: Int): CliqueIndex.Scratch =
    new CliqueIndex.Scratch(r, s, math.max(1, g.maxDegree))
}

object CliqueIndex {
  /** Per-thread enumeration buffers. */
  final class Scratch(r: Int, s: Int, maxDeg: Int) {
    val vsR = new Array[Int](r)
    val iBuf = new Array[Int](maxDeg)
    val cliqueBuf = new Array[Int](s)
    val sBuf = new Array[Int](s)
    val subBuf = new Array[Int](r)
    val combos: Array[Array[Int]] = Util.combinations(s, r)
    val subsetIds = new Array[Int](combos.length)
    val compBufs: Array[Array[Int]] = Array.ofDim[Int](math.max(1, s - r), maxDeg)
  }

}
