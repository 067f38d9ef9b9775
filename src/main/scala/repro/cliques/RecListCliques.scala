package repro.cliques

import repro.graph.{CSRGraph, DirectedGraph}
import repro.par.Par

/** Parallel c-clique listing (paper Algorithm 1, after Shi et al. [60]).
  *
  * Cliques are grown along a low out-degree orientation: a candidate set of
  * common directed neighbors is intersected with the out-neighborhood of
  * each vertex added to the clique. With an O(α)-oriented DAG this lists
  * all c-cliques in O(mα^{c−2}) work.
  *
  * One recursion ([[rec]]) serves every use of Algorithm 1: listing and
  * counting from root vertices ([[foreachRooted]], [[foreachClique]]) and
  * UPDATE's extension of a peeled r-clique to s-cliques
  * ([[foreachCompletion]]).
  *
  * Parallelism is over root vertices ([[Par.forBlocked]]); each parallel
  * block gets its own consumer (from `consumerFactory`) and scratch
  * buffers, so consumers can accumulate thread-locally without contention.
  * The clique buffer passed to consumers is reused — copy it if you keep it.
  * Vertices appear in orientation (rank) order.
  */
object RecListCliques {

  /** Enumerates every k-clique of the oriented graph `dg` (k ≥ 1). */
  def foreachClique(dg: DirectedGraph, k: Int)(consumerFactory: () => Array[Int] => Unit): Unit = {
    require(k >= 1, s"clique size must be >= 1, got $k")
    Par.forBlocked(0, dg.n, grain = 16) { (lo, hi) =>
      foreachRooted(dg, k, Iterator.range(lo, hi))(consumerFactory())
    }
  }

  /** Counts k-cliques (a foreachClique wrapper; one atomic add per clique,
    * which is fine at reproduction scales).
    */
  def countCliques(dg: DirectedGraph, k: Int): Long = {
    val acc = new java.util.concurrent.atomic.AtomicLong(0L)
    foreachClique(dg, k) { () => _ => acc.incrementAndGet() }
    acc.get()
  }

  /** Sequentially enumerates the k-cliques rooted at each vertex drawn from
    * `roots` (a root's cliques are those whose orientation-minimal vertex it
    * is). The Spark fan-out calls it directly, since its parallelism comes
    * from the partitioning rather than from [[repro.par.Par]].
    */
  def foreachRooted(dg: DirectedGraph, k: Int, roots: Iterator[Int])(f: Array[Int] => Unit): Unit = {
    require(k >= 1, s"clique size must be >= 1, got $k")
    val clique = new Array[Int](k)
    if (k == 1) {
      while (roots.hasNext) { clique(0) = roots.next(); f(clique) }
      return
    }
    val bufs = Array.ofDim[Int](k - 1, math.max(1, dg.maxOutDegree))
    while (roots.hasNext) {
      val v = roots.next()
      clique(0) = v
      val lo = dg.offsets(v)
      val len = dg.offsets(v + 1) - lo
      if (len >= k - 1) {
        System.arraycopy(dg.adj, lo, bufs(0), 0, len)
        rec(dg, k - 1, 1, clique, bufs(0), len, bufs, 1, f)
      }
    }
  }

  /** Enumerates cliques of size `need` (≥ 1) drawn from the sorted candidate
    * set `cand(0 until candLen)` using directed adjacency, appending the
    * chosen vertices to `clique(baseLen until baseLen+need)` and invoking
    * `f(clique)` for each completion. This is UPDATE's use of Algorithm 1:
    * `cand` is the intersection of the undirected neighborhoods of a peeled
    * r-clique, and completions extend it to full s-cliques. `bufs` needs
    * `need − 1` rows of at least `candLen` entries.
    */
  def foreachCompletion(
      dg: DirectedGraph,
      cand: Array[Int],
      candLen: Int,
      need: Int,
      clique: Array[Int],
      baseLen: Int,
      bufs: Array[Array[Int]]
  )(f: Array[Int] => Unit): Unit = {
    require(need >= 1, s"need must be >= 1, got $need")
    rec(dg, need, baseLen, clique, cand, candLen, bufs, 0, f)
  }

  /** Algorithm 1: extends `clique(0 until depth)` by every `rl`-clique of
    * the candidates `cand(0 until candLen)`. Each level intersects the
    * candidates with the chosen vertex's out-neighbors into `bufs(next)`.
    */
  private def rec(
      dg: DirectedGraph,
      rl: Int,
      depth: Int,
      clique: Array[Int],
      cand: Array[Int],
      candLen: Int,
      bufs: Array[Array[Int]],
      next: Int,
      f: Array[Int] => Unit
  ): Unit = {
    if (rl == 1) {
      var i = 0
      while (i < candLen) { clique(depth) = cand(i); f(clique); i += 1 }
      return
    }
    val out = bufs(next)
    var i = 0
    while (i < candLen) {
      val u = cand(i)
      clique(depth) = u
      val nl = dg.intersectOut(cand, candLen, u, out)
      if (nl >= rl - 1) rec(dg, rl - 1, depth + 1, clique, out, nl, bufs, next + 1, f)
      i += 1
    }
  }
}

/** Sorted-adjacency set intersection (paper §3 uses parallel hash-table
  * intersections; the practical implementation, like Shi et al.'s k-clique
  * listing and GBBS, intersects sorted arrays).
  */
object Intersect {

  /** Length ratio above which a pairwise intersection gallops through the
    * longer row instead of merging the two.
    */
  private final val GallopRatio = 32

  /** Writes the common undirected neighbors of `vs(0 until len)` into `out`
    * (sorted ascending, without the members themselves) and returns the
    * count. `out` needs room for the smallest member degree.
    *
    * Intersects the two shortest rows of `g.offsets`/`g.adj` into `out`,
    * then shrinks `out` in place against each remaining row, stopping once
    * it is empty, so the candidate set never exceeds the minimum member
    * degree (the Lemma 4.1 accounting). Each pairwise step merges, or
    * gallops (exponential then binary search) when the longer row is more
    * than `GallopRatio` (32) times the shorter. Members drop out on their own:
    * no row contains its own vertex.
    */
  def commonNeighbors(g: CSRGraph, vs: Array[Int], len: Int, out: Array[Int]): Int = {
    require(len >= 1, "need at least one vertex")
    val off = g.offsets
    val adj = g.adj
    if (len == 1) {
      val lo = off(vs(0))
      val d = off(vs(0) + 1) - lo
      System.arraycopy(adj, lo, out, 0, d)
      return d
    }
    // a, b: indices of the shortest and second-shortest rows
    var a = 0
    var b = 1
    if (g.degree(vs(b)) < g.degree(vs(a))) { a = 1; b = 0 }
    var i = 2
    while (i < len) {
      val d = g.degree(vs(i))
      if (d < g.degree(vs(a))) { b = a; a = i }
      else if (d < g.degree(vs(b))) b = i
      i += 1
    }
    var k = intersectInto(adj, off(vs(a)), off(vs(a) + 1), adj, off(vs(b)), off(vs(b) + 1), out)
    i = 0
    while (k > 0 && i < len) {
      if (i != a && i != b) k = intersectInto(out, 0, k, adj, off(vs(i)), off(vs(i) + 1), out)
      i += 1
    }
    k
  }

  /** Writes `s(sLo until sHi) ∩ l(lLo until lHi)` (both sorted ascending,
    * the first no longer than the second) into `out` from index 0 and
    * returns its size. `out` may be `s` with `sLo == 0`: every write lands
    * at or before the element just read.
    */
  private def intersectInto(
      s: Array[Int], sLo: Int, sHi: Int,
      l: Array[Int], lLo: Int, lHi: Int,
      out: Array[Int]
  ): Int = {
    var k = 0
    var i = sLo
    var j = lLo
    if ((lHi - lLo).toLong > GallopRatio.toLong * (sHi - sLo)) {
      while (i < sHi && j < lHi) {
        val x = s(i)
        if (l(j) < x) {
          // gallop: l(lo) < x, and hi == lHi or l(hi) >= x
          var lo = j
          var step = 1
          while (step < lHi - lo && l(lo + step) < x) { lo += step; step <<= 1 }
          var hi = if (step < lHi - lo) lo + step else lHi
          while (hi - lo > 1) {
            val mid = (lo + hi) >>> 1
            if (l(mid) < x) lo = mid else hi = mid
          }
          j = hi
        }
        if (j < lHi && l(j) == x) { out(k) = x; k += 1; j += 1 }
        i += 1
      }
    } else {
      while (i < sHi && j < lHi) {
        val x = s(i)
        val y = l(j)
        if (x < y) i += 1
        else if (x > y) j += 1
        else { out(k) = x; k += 1; i += 1; j += 1 }
      }
    }
    k
  }
}
