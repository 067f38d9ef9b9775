package repro.graph

/** The (2,3) graph-contraction policy (paper §5.6): once enough edges have
  * been peeled, the adjacency lists of vertices that lost at least a quarter
  * of their neighbors since the last contraction are filtered (parallel per
  * vertex), so later rounds stop iterating over peeled edges. [[graph]] is
  * the current, contracted graph.
  *
  * Filtering is purely a work-saving measure: a peeled edge left in a list
  * is caught by the algorithm's previously-peeled check, so lists may be
  * trimmed asymmetrically without affecting correctness.
  */
final class GraphContraction(initial: CSRGraph) {
  private val n = initial.n
  private var current = initial
  /** Neighbors lost (peeled) since the last contraction, per vertex. */
  private val lost = new Array[Int](n)
  /** Degree at the time of the last contraction, per vertex. */
  private val baseDeg = Array.tabulate(n)(initial.degree)
  private var peeledSinceContraction = 0L
  private var contractionCount = 0

  def graph: CSRGraph = current

  /** Number of contractions performed so far (for stats/tests). */
  def contractions: Int = contractionCount

  /** Records that the edges in `peeledPairs` (flattened u,v pairs) were
    * peeled this round, and contracts if the §5.6 heuristics fire: peeled
    * edges since the last contraction ≥ 2n, and only vertices that lost
    * ≥ 1/4 of their neighbors are filtered. `isPeeled(u, v)` decides edge
    * liveness during filtering. Returns true if a contraction ran.
    */
  def notePeeled(peeledPairs: Array[Int], numEdges: Int)(isPeeled: (Int, Int) => Boolean): Boolean = {
    var i = 0
    while (i < 2 * numEdges) { lost(peeledPairs(i)) += 1; i += 1 }
    peeledSinceContraction += numEdges
    if (peeledSinceContraction < 2L * n) return false
    val filtered = Array.tabulate(n)(v => lost(v) * 4 >= math.max(1, baseDeg(v)))
    current = current.filterRows(filtered(_))((v, u) => !isPeeled(v, u))
    var v = 0
    while (v < n) {
      if (filtered(v)) { baseDeg(v) = current.degree(v); lost(v) = 0 }
      v += 1
    }
    peeledSinceContraction = 0
    contractionCount += 1
    true
  }
}
