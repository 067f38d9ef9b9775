package repro.graph

import repro.par.Par

/** Immutable simple undirected graph in compressed sparse row form.
  *
  * `offsets` has length `n + 1`; the neighbors of vertex `v` are
  * `adj(offsets(v)) until adj(offsets(v+1))`, sorted ascending with no
  * duplicates and no self loops. `m` counts undirected edges, so
  * `adj.length == 2 * m`.
  */
final class CSRGraph(val offsets: Array[Int], val adj: Array[Int]) extends Serializable {
  val n: Int = offsets.length - 1
  val m: Long = adj.length / 2L

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Iterates neighbors of `v` without allocation. */
  def foreachNeighbor(v: Int)(f: Int => Unit): Unit = {
    var i = offsets(v)
    val hi = offsets(v + 1)
    while (i < hi) { f(adj(i)); i += 1 }
  }

  def neighbors(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(adj, offsets(v), offsets(v + 1))

  /** Binary search in `v`'s sorted adjacency list. */
  def hasEdge(v: Int, u: Int): Boolean = {
    var lo = offsets(v)
    var hi = offsets(v + 1) - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val x = adj(mid)
      if (x == u) return true
      else if (x < u) lo = mid + 1
      else hi = mid - 1
    }
    false
  }

  def maxDegree: Int = {
    var mx = 0
    var v = 0
    while (v < n) { val d = degree(v); if (d > mx) mx = d; v += 1 }
    mx
  }

  /** Returns an isomorphic graph with vertex `v` renamed to `newId(v)`. */
  def relabel(newId: Array[Int]): CSRGraph = {
    require(newId.length == n, "relabel permutation must cover all vertices")
    val newOff = new Array[Int](n + 1)
    Par.forBlocked(0, n) { (lo, hi) =>
      var v = lo
      while (v < hi) { newOff(newId(v) + 1) = degree(v); v += 1 }
    }
    CSRGraph.prefixSum(newOff)
    val newAdj = new Array[Int](adj.length)
    Par.forBlocked(0, n) { (lo, hi) =>
      var v = lo
      while (v < hi) {
        val tgt = newId(v)
        var w = newOff(tgt)
        var i = offsets(v)
        while (i < offsets(v + 1)) { newAdj(w) = newId(adj(i)); w += 1; i += 1 }
        java.util.Arrays.sort(newAdj, newOff(tgt), w)
        v += 1
      }
    }
    new CSRGraph(newOff, newAdj)
  }

  /** Returns a copy in which every row `v` with `filter(v)` keeps only the
    * neighbours `u` with `keep(v, u)`; other rows are copied unchanged. Rows
    * stay sorted. `keep` is called once per neighbour of a filtered row,
    * from parallel workers.
    */
  def filterRows(filter: Int => Boolean)(keep: (Int, Int) => Boolean): CSRGraph = {
    // compact each row within its old range, then close the gaps
    val kept = new Array[Int](adj.length)
    val newOff = new Array[Int](n + 1)
    Par.forBlocked(0, n) { (lo, hi) =>
      var v = lo
      while (v < hi) {
        var w = offsets(v)
        if (filter(v)) {
          var i = offsets(v)
          while (i < offsets(v + 1)) {
            if (keep(v, adj(i))) { kept(w) = adj(i); w += 1 }
            i += 1
          }
        } else {
          System.arraycopy(adj, offsets(v), kept, w, degree(v))
          w += degree(v)
        }
        newOff(v + 1) = w - offsets(v)
        v += 1
      }
    }
    CSRGraph.prefixSum(newOff)
    val newAdj = new Array[Int](newOff(n))
    Par.forBlocked(0, n) { (lo, hi) =>
      var v = lo
      while (v < hi) {
        System.arraycopy(kept, offsets(v), newAdj, newOff(v), newOff(v + 1) - newOff(v))
        v += 1
      }
    }
    new CSRGraph(newOff, newAdj)
  }
}

object CSRGraph {

  /** Builds a CSR graph from an arbitrary edge list. Self loops are dropped,
    * parallel/duplicate and reversed duplicates are collapsed; `n` is
    * inferred as 1 + max vertex id unless given.
    */
  def fromEdges(edges: Iterable[(Int, Int)], numVertices: Int = -1): CSRGraph = {
    val keys = new scala.collection.mutable.ArrayBuilder.ofLong
    edges.foreach { case (u, v) =>
      require(u >= 0 && v >= 0, "vertex id out of range")
      if (u < v) keys.addOne(edgeKey(u, v)) else if (v < u) keys.addOne(edgeKey(v, u))
    }
    fromKeys(keys.result(), numVertices)
  }

  /** Packs the canonical edge {u, v}, u < v, as `(u << 32) | v`. */
  @inline def edgeKey(u: Int, v: Int): Long = (u.toLong << 32) | v

  /** Builds a CSR graph from packed canonical edge keys `(u << 32) | v`
    * with 0 <= u < v, in any order and with duplicates. Sorts and compacts
    * `keys` in place. `n` is inferred as 1 + max vertex id unless given. A
    * negative key (the sentinel for an id beyond Int range) fails fast.
    */
  def fromKeys(keys: Array[Long], numVertices: Int = -1): CSRGraph = {
    java.util.Arrays.parallelSort(keys)
    require(keys.isEmpty || keys(0) >= 0, "vertex id exceeds Int range")
    val n =
      if (numVertices >= 0) numVertices
      else {
        var mx = -1
        var i = 0
        while (i < keys.length) { mx = math.max(mx, keys(i).toInt); i += 1 }
        mx + 1
      }
    // one pass: drop duplicates in place, count degrees at offsets(v + 1)
    val offsets = new Array[Int](n + 1)
    var m = 0
    var i = 0
    while (i < keys.length) {
      val k = keys(i)
      if (m == 0 || k != keys(m - 1)) {
        val u = (k >>> 32).toInt
        val v = k.toInt
        require(u < v, "edge keys must be canonical (u < v)")
        require(v < n, "vertex id out of range")
        keys(m) = k
        m += 1
        offsets(u + 1) += 1
        offsets(v + 1) += 1
      }
      i += 1
    }
    prefixSum(offsets)
    // Keys are sorted by (u, v), so row w receives its neighbours u < w (from
    // keys (u, w)) before its neighbours v > w (from keys (w, v)), each in
    // ascending order: every row comes out sorted.
    val cursor = java.util.Arrays.copyOf(offsets, n)
    val adj = new Array[Int](offsets(n))
    i = 0
    while (i < m) {
      val u = (keys(i) >>> 32).toInt
      val w = keys(i).toInt
      adj(cursor(u)) = w; cursor(u) += 1
      adj(cursor(w)) = u; cursor(w) += 1
      i += 1
    }
    new CSRGraph(offsets, adj)
  }

  /** Turns per-row counts stored at `off(v + 1)` into row offsets. */
  private def prefixSum(off: Array[Int]): Unit = {
    var v = 0
    while (v < off.length - 1) { off(v + 1) += off(v); v += 1 }
  }

  /** Complete graph on `n` vertices — handy in tests. */
  def complete(n: Int): CSRGraph =
    fromEdges(for (u <- 0 until n; v <- u + 1 until n) yield (u, v), n)
}

/** A DAG produced by orienting an undirected graph along a total vertex
  * order: edges point from lower rank to higher rank. `rank` maps vertex →
  * position in the order. Out-adjacency lists are sorted by vertex id (so
  * sorted-array intersection works directly).
  */
final class DirectedGraph(
    val offsets: Array[Int],
    val adj: Array[Int],
    val rank: Array[Int]
) extends Serializable {
  val n: Int = offsets.length - 1

  def outDegree(v: Int): Int = offsets(v + 1) - offsets(v)

  def maxOutDegree: Int = {
    var mx = 0
    var v = 0
    while (v < n) { val d = outDegree(v); if (d > mx) mx = d; v += 1 }
    mx
  }

  /** Writes the intersection of sorted `cand(0 until candLen)` with the
    * out-neighbors of `v` into `out`, returning the intersection size.
    */
  def intersectOut(cand: Array[Int], candLen: Int, v: Int, out: Array[Int]): Int = {
    var i = 0
    var j = offsets(v)
    val jHi = offsets(v + 1)
    var k = 0
    while (i < candLen && j < jHi) {
      val a = cand(i)
      val b = adj(j)
      if (a == b) { out(k) = a; k += 1; i += 1; j += 1 }
      else if (a < b) i += 1
      else j += 1
    }
    k
  }
}
