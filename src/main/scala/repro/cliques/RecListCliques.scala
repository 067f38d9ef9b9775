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

/** Sorted-adjacency set intersection helpers (paper §3 parallel hash-table
  * intersections; the practical implementation intersects sorted arrays).
  */
object Intersect {

  /** Writes the common undirected neighbors of `vs(0 until len)` into `out`
    * (sorted ascending) and returns the count. Starts from the
    * minimum-degree member — the Lemma 4.1 accounting — and keeps each of
    * its neighbors for which a binary-search `hasEdge` succeeds on every
    * other member.
    */
  def commonNeighbors(g: CSRGraph, vs: Array[Int], len: Int, out: Array[Int]): Int = {
    require(len >= 1, "need at least one vertex")
    var minI = 0
    var i = 1
    while (i < len) { if (g.degree(vs(i)) < g.degree(vs(minI))) minI = i; i += 1 }
    val pivot = vs(minI)
    var k = 0
    var p = g.offsets(pivot)
    val pHi = g.offsets(pivot + 1)
    while (p < pHi) {
      val w = g.adj(p)
      var ok = true
      var j = 0
      while (ok && j < len) {
        if (j != minI && !(g.hasEdge(vs(j), w) || vs(j) == w)) ok = false
        j += 1
      }
      // w must be a neighbor of every vs(j); w == vs(j) is impossible since
      // simple graphs have no self loops, so exclude it explicitly.
      if (ok) {
        var member = false
        var t = 0
        while (t < len) { if (vs(t) == w) member = true; t += 1 }
        if (!member) { out(k) = w; k += 1 }
      }
      p += 1
    }
    k
  }
}
