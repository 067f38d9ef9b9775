package repro.graph

/** Low out-degree orientations (§3 "O(α)-Orientation", §5.4 relabeling).
  *
  * The paper obtains an O(α)-orientation via parallel Goodrich–Pszona /
  * Barenboim–Elkin. We substitute the classic degeneracy (smallest-last /
  * Matula–Beck) order, which gives the tight out-degree bound
  * `d ≤ 2α − 1` (appendix, footnote 9) — the same asymptotic guarantee the
  * paper relies on. Orienting along it yields a DAG whose maximum
  * out-degree, at most the degeneracy, bounds the work of REC-LIST-CLIQUES.
  */
object Orientation {

  /** Computes the coreness of every vertex and a degeneracy ordering using
    * the linear-time Matula–Beck bucket peel. Returns (coreness, order)
    * where `order(i)` is the i-th vertex peeled.
    */
  def coreness(g: CSRGraph): (Array[Int], Array[Int]) = {
    val n = g.n
    val deg = Array.tabulate(n)(g.degree)
    val maxDeg = if (n == 0) 0 else deg.max
    // bucket sort vertices by degree
    val binStart = new Array[Int](maxDeg + 2)
    var v = 0
    while (v < n) { binStart(deg(v) + 1) += 1; v += 1 }
    var d = 0
    while (d <= maxDeg) { binStart(d + 1) += binStart(d); d += 1 }
    val pos = new Array[Int](n)
    val vert = new Array[Int](n)
    val cursor = java.util.Arrays.copyOf(binStart, binStart.length)
    v = 0
    while (v < n) {
      pos(v) = cursor(deg(v)); vert(pos(v)) = v; cursor(deg(v)) += 1
      v += 1
    }
    // bin(d) = index of first vertex with degree >= d during the peel
    val bin = java.util.Arrays.copyOf(binStart, binStart.length)
    val core = new Array[Int](n)
    val order = new Array[Int](n)
    var k = 0
    var i = 0
    while (i < n) {
      val u = vert(i)
      if (deg(u) > k) k = deg(u)
      core(u) = k
      order(i) = u
      g.foreachNeighbor(u) { w =>
        if (deg(w) > deg(u)) {
          // swap w to the front of its bin, then shrink its degree
          val dw = deg(w)
          val pw = pos(w)
          val pFirst = bin(dw)
          val first = vert(pFirst)
          if (first != w) {
            vert(pFirst) = w; vert(pw) = first
            pos(w) = pFirst; pos(first) = pw
          }
          bin(dw) += 1
          deg(w) = dw - 1
        }
      }
      i += 1
    }
    (core, order)
  }

  /** The degeneracy (maximum coreness) of the graph. */
  def degeneracy(g: CSRGraph): Int = {
    val (core, _) = coreness(g)
    if (core.isEmpty) 0 else core.max
  }

  /** Returns rank(v) = position of v in the degeneracy order. */
  def ranks(g: CSRGraph): Array[Int] = {
    val perm = coreness(g)._2
    val rank = new Array[Int](g.n)
    var i = 0
    while (i < perm.length) { rank(perm(i)) = i; i += 1 }
    rank
  }

  /** Orients `g` along `rank`: each undirected edge {u,v} becomes u→v iff
    * rank(u) < rank(v). Out-adjacency stays sorted by vertex id.
    */
  def orient(g: CSRGraph, rank: Array[Int]): DirectedGraph = {
    val n = g.n
    val outDeg = new Array[Int](n)
    var v = 0
    while (v < n) {
      var c = 0
      g.foreachNeighbor(v)(u => if (rank(v) < rank(u)) c += 1)
      outDeg(v) = c
      v += 1
    }
    val offsets = new Array[Int](n + 1)
    var acc = 0
    v = 0
    while (v < n) { offsets(v) = acc; acc += outDeg(v); v += 1 }
    offsets(n) = acc
    val adj = new Array[Int](acc)
    v = 0
    while (v < n) {
      var w = offsets(v)
      g.foreachNeighbor(v) { u => if (rank(v) < rank(u)) { adj(w) = u; w += 1 } }
      // source adjacency is sorted by id, and we appended in that order
      v += 1
    }
    new DirectedGraph(offsets, adj, rank)
  }

  /** Orients `g` along its degeneracy order. */
  def orient(g: CSRGraph): DirectedGraph = orient(g, ranks(g))

  /** §5.4 graph relabeling: renames vertices so that id order == rank order.
    * Returns the relabeled graph, its (identity-rank) orientation, and
    * `oldOf(newId) = oldId` for translating results back.
    */
  def relabelByRank(g: CSRGraph): (CSRGraph, DirectedGraph, Array[Int]) = {
    val rank = ranks(g)
    val relabeled = g.relabel(rank)
    val oldOf = new Array[Int](g.n)
    var v = 0
    while (v < g.n) { oldOf(rank(v)) = v; v += 1 }
    val identityRank = Array.tabulate(relabeled.n)(identity)
    (relabeled, orient(relabeled, identityRank), oldOf)
  }
}
