package repro.graph

import org.scalacheck.Gen
import repro.SparkSpec
import repro.testutil.{Check, TestGraphs}

/** CSRGraph, its builder, orientations, relabeling, and graph contraction. */
class GraphSpec extends SparkSpec {

  /** A seeded random vertex order of `g`, as ranks. */
  private def randomRank(g: CSRGraph, seed: Long): Array[Int] =
    new scala.util.Random(seed).shuffle((0 until g.n).toVector).toArray

  test("fromEdges dedupes, drops self loops, and sorts adjacency") {
    val g = CSRGraph.fromEdges(Seq((1, 0), (0, 1), (2, 2), (0, 2), (2, 0)), 3)
    assert(g.n === 3)
    assert(g.m === 2L)
    assert(g.neighbors(0).toSeq === Seq(1, 2))
    assert(g.neighbors(2).toSeq === Seq(0))
  }

  test("fromEdges equals a Set-based reference on random edge lists") {
    val gen = for {
      n <- Gen.choose(1, 40)
      edges <- Gen.listOf(Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    } yield (n, edges)
    Check.forAll(gen, trials = 100) { case (n, edges) =>
      // duplicates, reversed pairs and self loops by construction
      val input = edges ++ edges.take(5) ++ edges.take(5).map(_.swap) ++ edges.take(3).map(e => (e._1, e._1))
      val g = CSRGraph.fromEdges(input, n)
      val ref = input.filter(e => e._1 != e._2).flatMap(e => Seq(e, e.swap)).toSet
      assert(g.n === n)
      assert(g.m === ref.size / 2)
      for (v <- 0 until n)
        assert(g.neighbors(v).toSeq === ref.collect { case (`v`, u) => u }.toSeq.sorted, s"row $v")
    }
  }

  test("fromKeys rejects a negative key") {
    val err = intercept[IllegalArgumentException](
      CSRGraph.fromKeys(Array(CSRGraph.edgeKey(0, 1), -1L))
    )
    assert(err.getMessage.contains("exceeds Int range"))
  }

  test("degree and hasEdge agree with adjacency") {
    val g = TestGraphs.paperFigure1
    assert(g.degree(0) === 5) // a: b,c,d,e,f
    assert(g.degree(6) === 2) // g: c,d
    assert(g.hasEdge(0, 5) && g.hasEdge(5, 0))
    assert(!g.hasEdge(5, 6))
    assert(!g.hasEdge(0, 0))
  }

  test("complete graph has all edges") {
    val g = CSRGraph.complete(6)
    assert(g.m === 15L)
    for (u <- 0 until 6; v <- 0 until 6 if u != v) assert(g.hasEdge(u, v))
  }

  test("relabel produces an isomorphic graph") {
    val g = TestGraphs.random(30, 0.2, 7)
    val perm = scala.util.Random.shuffle((0 until g.n).toList).toArray
    val h = g.relabel(perm)
    assert(h.m === g.m)
    for (u <- 0 until g.n; v <- 0 until g.n)
      assert(g.hasEdge(u, v) === h.hasEdge(perm(u), perm(v)))
  }

  test("coreness matches brute-force peel on small graphs") {
    for ((name, g) <- TestGraphs.suite) {
      val (core, order) = Orientation.coreness(g)
      assert(order.toSet === (0 until g.n).toSet, name)
      // brute force: coreness via repeated min-degree removal
      val deg = Array.tabulate(g.n)(g.degree)
      val alive = Array.fill(g.n)(true)
      val bf = new Array[Int](g.n)
      var k = 0
      for (_ <- 0 until g.n) {
        var mn = Int.MaxValue
        var who = -1
        for (v <- 0 until g.n if alive(v) && deg(v) < mn) { mn = deg(v); who = v }
        k = math.max(k, mn)
        bf(who) = k
        alive(who) = false
        g.foreachNeighbor(who)(u => if (alive(u)) deg(u) -= 1)
      }
      assert(core.toSeq === bf.toSeq, name)
    }
  }

  test("degeneracy ordering bounds out-degree by degeneracy") {
    for ((name, g) <- TestGraphs.suite if g.n > 0) {
      val d = Orientation.degeneracy(g)
      val dg = Orientation.orient(g)
      assert(dg.maxOutDegree <= math.max(1, d), s"$name: outdeg=${dg.maxOutDegree} degeneracy=$d")
    }
  }

  test("orientation is acyclic and covers every edge once") {
    val g = TestGraphs.random(30, 0.3, 3)
    val dg = Orientation.orient(g, randomRank(g, 3))
    var count = 0L
    for (v <- 0 until g.n) {
      var i = dg.offsets(v)
      while (i < dg.offsets(v + 1)) {
        val u = dg.adj(i)
        assert(dg.rank(v) < dg.rank(u), "edge against the order")
        assert(g.hasEdge(v, u))
        count += 1
        i += 1
      }
    }
    assert(count === g.m)
  }

  test("out-adjacency is sorted by id (intersection precondition)") {
    val g = TestGraphs.random(40, 0.25, 13)
    for (dg <- Seq(Orientation.orient(g), Orientation.orient(g, randomRank(g, 13)))) {
      for (v <- 0 until g.n) {
        val out = dg.adj.slice(dg.offsets(v), dg.offsets(v + 1))
        assert(out.toSeq === out.sorted.toSeq)
      }
    }
  }

  test("relabelByRank yields identity ranks and a translation back") {
    val g = TestGraphs.random(30, 0.2, 19)
    val (rg, rdg, oldOf) = Orientation.relabelByRank(g)
    assert(rg.m === g.m)
    // identity orientation: every directed edge goes low id -> high id
    for (v <- 0 until rg.n) {
      var i = rdg.offsets(v)
      while (i < rdg.offsets(v + 1)) { assert(rdg.adj(i) > v); i += 1 }
    }
    // translation is a bijection preserving adjacency
    assert(oldOf.toSet.size === g.n)
    for (u <- 0 until rg.n; v <- 0 until rg.n)
      assert(rg.hasEdge(u, v) === g.hasEdge(oldOf(u), oldOf(v)))
  }

  test("intersectOut computes sorted intersections") {
    val g = TestGraphs.complete(8)
    val dg = Orientation.orient(g)
    val cand = Array(3, 4, 5, 6, 7)
    val out = new Array[Int](8)
    val len = dg.intersectOut(cand, 5, 2, out)
    // out-neighbors of rank-oriented vertex 2 intersected with cand
    val expected = cand.filter(u => dg.adj.slice(dg.offsets(2), dg.offsets(3)).contains(u))
    assert(out.take(len).toSeq === expected.toSeq)
  }

  test("GraphContraction mirrors the base graph until contraction") {
    val g = TestGraphs.paperFigure1 // n=7: threshold = 14 peeled edges
    val gc = new GraphContraction(g)
    assert(!gc.notePeeled(Array(0, 1, 0, 2, 1, 2), 3)((_, _) => true))
    assert(gc.contractions === 0)
    assert(gc.graph eq g)
  }

  // the peelable graph is the CSRGraph that GraphContraction serves to the peel
  test("PeelableGraph contracts only after the 2n threshold and filters peeled edges") {
    val g = CSRGraph.complete(10) // n=10, m=45; threshold = 20 peeled edges
    val gc = new GraphContraction(g)
    // the 21 edges among vertices 0..6: their rows lose 6 of 9 neighbours,
    // the rows of 7..9 lose none
    val batch = for (u <- 0 until 7; v <- u + 1 until 7) yield (u, v)
    val peeled = batch.toSet
    def peel(edges: Seq[(Int, Int)]): Boolean =
      gc.notePeeled(edges.flatMap { case (u, v) => Seq(u, v) }.toArray, edges.length) { (a, b) =>
        peeled((math.min(a, b), math.max(a, b)))
      }
    assert(!peel(batch.take(10))) // 10 < 20: no contraction
    assert(gc.contractions === 0)
    assert(peel(batch.drop(10))) // 21 >= 20: contraction fires
    assert(gc.contractions === 1)
    val h = gc.graph
    for (v <- 0 until 10) {
      val row = h.neighbors(v)
      assert(row.toSeq === row.sorted.toSeq, s"row $v sorted")
      if (v < 7) assert(row.toSeq === (7 until 10), s"row $v keeps only live neighbours")
      else assert(row.toSeq === g.neighbors(v).toSeq, s"unfiltered row $v unchanged")
    }
    assert(h.m < g.m)
  }
}
