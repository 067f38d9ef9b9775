package repro.bench

import repro.SparkSpec
import repro.harness.{Harness, Tables}

/** Benchmark suites, one per evaluation table (run via `sbt "bench/test"`).
  *
  * Each suite regenerates its table at reproduction scale (SNAP-substitute
  * graphs, see DESIGN.md), writes it under bench_results/, and asserts the
  * *shape* claims of the paper — which system wins and in what direction —
  * without pinning absolute numbers.
  */

/** T1 (Fig. 7): ρ(r,s) rounds and max core per graph. */
class T1RhoBench extends SparkSpec {
  test("T1: rho and max-core table, r<s<=6") {
    val md = Tables.table1Rho(
      spark,
      Seq("amazon-lite", "dblp-lite", "youtube-lite", "skitter-lite"),
      maxS = 6,
      budgetMsPerGraph = 90000L
    )
    assert(md.contains("ρ="))
    // peeling complexity must be far below the number of r-cliques: the
    // parallel-rounds claim that separates ARB from PND
    val g = Harness.graph(spark, "dblp-lite")
    val res = repro.core.ArbNucleusDecomp.decompose(g, 2, 3)
    assert(res.stats.rounds.toLong * 10 < res.stats.numRCliques)
  }
}

/** T2 (Fig. 8/9): T-configuration speedups. */
class T2TOptBench extends SparkSpec {
  test("T2: table-config sweep for (3,4) and (4,5)") {
    val md = Tables.table2TOpts(
      spark,
      Seq("dblp-lite", "skitter-lite", "orkut-lite"),
      rs = Seq((3, 4), (4, 5)),
      reps = 2
    )
    assert(md.contains("2-level c/sp"))
  }
}

/** T3 (Fig. 8 right / 10): T-configuration space savings. */
class T3SpaceBench extends SparkSpec {
  test("T3: space savings of multi-level tables") {
    // the r-clique-dense instances are where prefix sharing pays (paper §6.2);
    // rmat(12,64) has ~37 4-cliques per vertex, like the paper's large graphs
    Harness.rmatGraph(spark, 12, 64) // cache under its canonical name
    val md = Tables.table3Space(
      spark,
      Seq("dblp-lite", "skitter-lite", "orkut-lite", "rmat-12-64-42"),
      rs = Seq((2, 3), (3, 4), (4, 5))
    )
    assert(md.contains("x"))
    // shape: for (3,4) the two-level table must save structure words over
    // one-level on every graph (paper: up to 2.15x savings)
    for (name <- Seq("amazon-lite", "dblp-lite")) {
      val g = Harness.graph(spark, name)
      def words(scheme: repro.core.TableScheme) = repro.core.ArbNucleusDecomp
        .decompose(g, 3, 4, repro.core.NucleusConfig(scheme = scheme, relabel = false))
        .stats.tableMemory.structureWords
      assert(words(repro.core.TwoLevelArray) < words(repro.core.OneLevel), name)
    }
  }
}

/** T4 (Fig. 11): relabeling / aggregation / contraction speedups. */
class T4OtherOptsBench extends SparkSpec {
  test("T4: other-optimization sweep for (2,3), (2,4), (3,4)") {
    val md = Tables.table4OtherOpts(
      spark,
      Seq("dblp-lite", "skitter-lite", "orkut-lite"),
      rs = Seq((2, 3), (2, 4), (3, 4)),
      reps = 2
    )
    assert(md.contains("list-buffer") && md.contains("hash-table"))
  }
}

/** T5 (Fig. 12): baseline comparison. */
class T5BaselineBench extends SparkSpec {
  test("T5: ND/PND/AND/AND-NN/PKT slowdowns and work ratios") {
    val md = Tables.table5Baselines(
      spark,
      Seq("amazon-lite", "dblp-lite", "youtube-lite"),
      rs = Seq((2, 3), (3, 4))
    )
    assert(md.contains("PND/ARB rounds"))
    // shape claims on a mid-size graph
    val g = Harness.graph(spark, "dblp-lite")
    val arb = repro.core.ArbNucleusDecomp.decompose(g, 2, 3)
    val pnd = repro.baselines.Pnd.run(g, 2, 3)
    assert(pnd.rounds > 50L * arb.stats.rounds,
      s"PND rounds ${pnd.rounds} vs ARB ${arb.stats.rounds}: paper reports 5608-84170x")
    val and = repro.baselines.And.run(g, 2, 3)
    assert(and.discoveries > arb.stats.totalScliqueDiscoveries,
      "AND must re-discover more s-cliques than ARB (paper: 1.69-46x)")
  }
}

/** T6 (Fig. 13): all (r,s) relative times. */
class T6AllRSBench extends SparkSpec {
  test("T6: r<s<=6 sweep") {
    val md = Tables.table6AllRS(
      spark,
      Seq("amazon-lite", "dblp-lite", "youtube-lite"),
      maxS = 6,
      budgetMsPerGraph = 90000L
    )
    assert(md.contains("fastest"))
  }
}

/** T7 (Fig. 14): thread scalability. */
class T7ScalingBench extends SparkSpec {
  test("T7: self-relative speedup grows with threads") {
    val cores = Runtime.getRuntime.availableProcessors
    assume(cores > 1, "thread scaling needs more than one core")
    val md = Tables.table7Scaling(spark, Seq("skitter-lite", "orkut-lite"), rs = Seq((2, 3), (3, 4)))
    assert(md.contains(s"speedup@$cores"))
    // shape: all cores beat 1 thread on the heavier instance
    val g = Harness.graph(spark, "skitter-lite")
    val t1 = repro.par.Par.withThreads(1)(
      Harness.timeMs(2)(repro.core.ArbNucleusDecomp.decompose(g, 3, 4))._2)
    val tAll = repro.par.Par.withThreads(cores)(
      Harness.timeMs(2)(repro.core.ArbNucleusDecomp.decompose(g, 3, 4))._2)
    assert(tAll < t1, s"no parallel speedup: 1thr=$t1 ms, ${cores}thr=$tAll ms")
  }
}

/** T8 (Fig. 15): rMAT density sweep. */
class T8RmatBench extends SparkSpec {
  test("T8: runtime scales with s-clique count across densities") {
    val md = Tables.table8Rmat(
      spark,
      scales = Seq(10, 12),
      edgeFactors = Seq(8, 32, 64),
      rs = Seq((2, 3), (3, 4), (4, 5))
    )
    assert(md.contains("rMAT"))
    // shape: denser rMAT has more triangles
    val sparse = Harness.rmatGraph(spark, 12, 8)
    val dense = Harness.rmatGraph(spark, 12, 64)
    val cSparse = repro.cliques.RecListCliques.countCliques(
      repro.graph.Orientation.orient(sparse), 3)
    val cDense = repro.cliques.RecListCliques.countCliques(
      repro.graph.Orientation.orient(dense), 3)
    assert(cDense > cSparse)
  }
}
