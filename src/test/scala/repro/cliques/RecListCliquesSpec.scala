package repro.cliques

import repro.SparkSpec
import repro.baselines.RefNucleus
import repro.graph.Orientation
import repro.testutil.TestGraphs

/** REC-LIST-CLIQUES (Algorithm 1) against brute-force enumeration. */
class RecListCliquesSpec extends SparkSpec {

  for ((name, g) <- TestGraphs.suite; k <- 1 to 6) {
    test(s"countCliques matches brute force: $name k=$k") {
      val expected = RefNucleus.allCliques(g, k).length.toLong
      val dg = Orientation.orient(g)
      assert(RecListCliques.countCliques(dg, k) === expected)
    }
  }

  for ((name, g) <- TestGraphs.suite.take(4); k <- 2 to 4) {
    test(s"listing is duplicate-free and complete: $name k=$k") {
      val dg = Orientation.orient(g)
      val seen = new java.util.concurrent.ConcurrentLinkedQueue[Seq[Int]]()
      RecListCliques.foreachClique(dg, k) { () => clique =>
        seen.add(clique.toSeq.sorted)
      }
      import scala.jdk.CollectionConverters._
      val got = seen.asScala.toSeq
      val expected = RefNucleus.allCliques(g, k).map(_.toSeq).toSeq
      assert(got.size === got.distinct.size, "duplicate cliques listed")
      assert(got.sortBy(_.mkString(",")) === expected.sortBy(_.mkString(",")))
    }
  }

  test("countCliques under a random order matches degeneracy ordering") {
    val g = TestGraphs.random(60, 0.2, 11)
    val rank = new scala.util.Random(11).shuffle((0 until g.n).toVector).toArray
    for (k <- 2 to 5) {
      val a = RecListCliques.countCliques(Orientation.orient(g), k)
      val b = RecListCliques.countCliques(Orientation.orient(g, rank), k)
      assert(a === b, s"k=$k")
    }
  }

  test("foreachRooted sums to total count") {
    val g = TestGraphs.random(50, 0.25, 5)
    val dg = Orientation.orient(g)
    def countRooted(k: Int, roots: Range): Long = {
      var cnt = 0L
      RecListCliques.foreachRooted(dg, k, roots.iterator)(_ => cnt += 1)
      cnt
    }
    for (k <- 2 to 5) {
      val total = RecListCliques.countCliques(dg, k)
      val split = countRooted(k, 0 until 17) + countRooted(k, 17 until g.n)
      assert(split === total, s"k=$k")
    }
  }

  test("foreachCompletion lists exactly the extensions of a base clique") {
    val g = TestGraphs.paperFigure1
    val dg = Orientation.orient(g)
    // base = triangle {0,1,4} (a,b,e); its common neighbors: {2,3,5}
    val base = Array(0, 1, 4)
    val iBuf = new Array[Int](g.maxDegree)
    val iLen = Intersect.commonNeighbors(g, base, 3, iBuf)
    assert(iBuf.take(iLen).toSeq === Seq(2, 3, 5))
    // extensions to 4-cliques: {0,1,4}+{2}, +{3}, +{5} all are 4-cliques
    val clique = new Array[Int](4)
    System.arraycopy(base, 0, clique, 0, 3)
    val bufs = Array.ofDim[Int](1, g.maxDegree)
    val found = scala.collection.mutable.ArrayBuffer[Seq[Int]]()
    RecListCliques.foreachCompletion(dg, iBuf, iLen, 1, clique, 3, bufs) { cl =>
      found += cl.toSeq.sorted
    }
    assert(found.toSet === Set(Seq(0, 1, 2, 4), Seq(0, 1, 3, 4), Seq(0, 1, 4, 5)))
  }

  test("foreachCompletion need=2 finds 2-clique completions") {
    val g = TestGraphs.complete(6)
    val dg = Orientation.orient(g)
    val base = Array(0, 1)
    val iBuf = new Array[Int](g.maxDegree)
    val iLen = Intersect.commonNeighbors(g, base, 2, iBuf)
    assert(iLen === 4)
    val clique = new Array[Int](4)
    System.arraycopy(base, 0, clique, 0, 2)
    val bufs = Array.ofDim[Int](2, g.maxDegree)
    var cnt = 0
    RecListCliques.foreachCompletion(dg, iBuf, iLen, 2, clique, 2, bufs) { _ => cnt += 1 }
    assert(cnt === 6) // C(4,2) pairs, all adjacent in K6
  }

  test("commonNeighbors of a single vertex is its neighborhood") {
    val g = TestGraphs.paperFigure1
    val out = new Array[Int](g.maxDegree)
    val len = Intersect.commonNeighbors(g, Array(5), 1, out)
    assert(out.take(len).toSeq === Seq(0, 1, 4))
  }

  test("commonNeighbors excludes members of the query set") {
    val g = TestGraphs.complete(5)
    val out = new Array[Int](g.maxDegree)
    val len = Intersect.commonNeighbors(g, Array(0, 1), 2, out)
    assert(out.take(len).toSeq === Seq(2, 3, 4))
  }

  test("empty graph and k larger than graph") {
    val dg = Orientation.orient(TestGraphs.empty)
    assert(RecListCliques.countCliques(dg, 3) === 0L)
    val dg2 = Orientation.orient(TestGraphs.singleEdge)
    assert(RecListCliques.countCliques(dg2, 2) === 1L)
    assert(RecListCliques.countCliques(dg2, 3) === 0L)
  }
}
