package repro.cliques

import repro.SparkSpec
import repro.graph.CSRGraph
import scala.util.Random

/** `Intersect.commonNeighbors` against a `Set`-based reference. The oracle
  * `Nd.run` shares the function with ARB's UPDATE, so the check here must
  * not go through it.
  */
class IntersectSpec extends SparkSpec {

  /** Sparse random graph (leaf degree about 4) plus two hubs adjacent to
    * most vertices, so hub rows are more than 32x a leaf's (gallop) and
    * comparable to each other (merge).
    */
  private def hubGraph(n: Int, seed: Long): CSRGraph = {
    val rnd = new Random(seed)
    val edges = Seq.newBuilder[(Int, Int)]
    for (u <- 0 until n; v <- u + 1 until n if rnd.nextDouble() < 4.0 / n) edges += ((u, v))
    for (hub <- Seq(0, 1); v <- 2 until n if rnd.nextDouble() < 0.9) edges += ((hub, v))
    CSRGraph.fromEdges(edges.result(), n)
  }

  private def rowSet(g: CSRGraph, v: Int): Set[Int] = g.neighbors(v).toSet

  private def reference(g: CSRGraph, vs: Seq[Int]): Seq[Int] =
    (vs.map(rowSet(g, _)).reduce(_ intersect _) -- vs).toSeq.sorted

  private def isClique(g: CSRGraph, vs: Seq[Int]): Boolean =
    vs.combinations(2).forall { case Seq(a, b) => g.hasEdge(a, b) }

  /** A clique of `size` grown greedily from a random vertex, if one is found. */
  private def randomClique(g: CSRGraph, size: Int, rnd: Random): Option[Seq[Int]] = {
    var cl = Seq(rnd.nextInt(g.n))
    var cand = rowSet(g, cl.head)
    while (cl.size < size && cand.nonEmpty) {
      val v = cand.toSeq.sorted.apply(rnd.nextInt(cand.size))
      cl :+= v
      cand = cand intersect rowSet(g, v)
    }
    if (cl.size == size) Some(cl) else None
  }

  test("commonNeighbors equals the Set reference: sizes 1-4, cliques and not, merge and gallop") {
    var gallopHits, mergeHits, empties, cliques, nonCliques = 0
    for (seed <- 1L to 6L) {
      val g = hubGraph(400, seed)
      val rnd = new Random(seed)
      val out = new Array[Int](g.maxDegree)
      val queries = for (size <- 1 to 4; _ <- 0 until 60) yield {
        val pick = rnd.nextInt(3)
        if (pick == 0) randomClique(g, size, rnd).getOrElse(Seq.fill(size)(rnd.nextInt(g.n)).distinct)
        else if (pick == 1) (Seq(0, 1).take(rnd.nextInt(3)) ++ Seq.fill(size)(2 + rnd.nextInt(g.n - 2))).distinct.take(size)
        else Seq.fill(size)(rnd.nextInt(g.n)).distinct
      }
      for (vs <- queries) {
        val len = Intersect.commonNeighbors(g, vs.toArray, vs.size, out)
        val want = reference(g, vs)
        assert(out.take(len).toSeq === want, s"seed=$seed query=$vs")
        if (want.isEmpty) empties += 1
        if (vs.size > 1 && isClique(g, vs)) cliques += 1 else if (vs.size > 1) nonCliques += 1
        val degs = vs.map(g.degree).sorted
        if (want.nonEmpty && vs.size > 1) {
          if (degs.last > 32 * degs.head) gallopHits += 1 else mergeHits += 1
        }
      }
    }
    assert(gallopHits > 0 && mergeHits > 0 && empties > 0 && cliques > 0 && nonCliques > 0,
      s"gallop=$gallopHits merge=$mergeHits empty=$empties cliques=$cliques nonCliques=$nonCliques")
  }

  test("commonNeighbors on asymmetrically filtered rows intersects the rows as stored") {
    // contraction trims rows one-sidedly; UPDATE reads such graphs
    val g0 = hubGraph(300, 42)
    val rnd = new Random(42)
    val drop = Array.fill(g0.n)(rnd.nextInt(8))
    val g = g0.filterRows(v => drop(v) == 0)((v, u) => (v + u) % 3 != 0)
    val out = new Array[Int](g.maxDegree)
    for (size <- 1 to 4; _ <- 0 until 200) {
      val vs = (Seq(0, 1).take(rnd.nextInt(3)) ++ Seq.fill(size)(rnd.nextInt(g.n))).distinct.take(size)
      val len = Intersect.commonNeighbors(g, vs.toArray, vs.size, out)
      assert(out.take(len).toSeq === reference(g, vs), s"query=$vs")
    }
  }
}
