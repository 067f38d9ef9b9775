package repro.harness

import repro.SparkSpec
import repro.testutil.TestGraphs

/** Smoke tests for the per-table runners on tiny registered graphs, so the
  * unit-test run exercises the bench harness end to end.
  */
class HarnessSpec extends SparkSpec {

  // keep smoke-test tables out of the real bench_results/ directory
  override def beforeAll(): Unit = {
    super.beforeAll()
    val scratch = java.nio.file.Files.createTempDirectory("repro-results")
    sys.props("repro.results.dir") = scratch.toString
  }

  override def afterAll(): Unit = {
    sys.props -= "repro.results.dir"
    super.afterAll()
  }

  private def tiny(): Seq[String] = {
    Harness.register("tiny-a", TestGraphs.randomWithCliques(60, 0.15, Seq(7, 6), 5))
    Harness.register("tiny-b", TestGraphs.randomWithCliques(50, 0.2, Seq(6), 9))
    Seq("tiny-a", "tiny-b")
  }

  test("markdown renders header and rows") {
    val md = Harness.markdown("t", Seq("a", "b"), Seq(Seq("1", "2"), Seq("3", "4")))
    assert(md.contains("### t"))
    assert(md.contains("| a | b |"))
    assert(md.contains("| 3 | 4 |"))
  }

  test("fmt formats magnitudes and invalids") {
    assert(Harness.fmt(1234.5) === "1235" || Harness.fmt(1234.5) === "1234")
    assert(Harness.fmt(1.234) === "1.23")
    assert(Harness.fmt(0.1234) === "0.123")
    assert(Harness.fmt(Double.NaN) === "—")
  }

  test("rsCombos covers r < s <= maxS") {
    assert(Harness.rsCombos(3) === Seq((1, 2), (1, 3), (2, 3)))
    assert(Harness.rsCombos(4, minR = 2) === Seq((2, 3), (2, 4), (3, 4)))
  }

  test("T7's default thread sweep stops at the core count") {
    assert(Tables.threadSweep(1) === Seq(1))
    assert(Tables.threadSweep(4) === Seq(1, 2, 4))
    assert(Tables.threadSweep(6) === Seq(1, 2, 4, 6))
    assert(Tables.threadSweep(32) === Seq(1, 2, 4, 8, 16, 32))
  }

  test("timeMs returns the body's value and a positive time") {
    val (v, ms) = Harness.timeMs(2)(21 * 2)
    assert(v === 42)
    assert(ms >= 0.0)
  }

  test("table1Rho runs on tiny graphs and reports rho") {
    val md = Tables.table1Rho(spark, tiny(), maxS = 4)
    assert(md.contains("tiny-a") && md.contains("ρ="))
  }

  test("table2TOpts + table3Space run on tiny graphs") {
    val names = tiny()
    val md2 = Tables.table2TOpts(spark, names, Seq((3, 4)), reps = 1)
    assert(md2.contains("2-level c/sp"))
    val md3 = Tables.table3Space(spark, names, Seq((3, 4)))
    assert(md3.contains("1-level words"))
  }

  test("table4OtherOpts runs on tiny graphs") {
    val md = Tables.table4OtherOpts(spark, tiny(), Seq((2, 3)), reps = 1)
    assert(md.contains("contraction"))
  }

  test("table5Baselines runs on tiny graphs with all comparators") {
    val md = Tables.table5Baselines(spark, tiny(), Seq((2, 3)))
    assert(md.contains("PKT") && md.contains("AND-NN"))
  }

  test("table6AllRS and table7Scaling run on tiny graphs") {
    val names = tiny()
    assert(Tables.table6AllRS(spark, names, maxS = 4).contains("fastest"))
    assert(Tables.table7Scaling(spark, names.take(1), Seq((2, 3)), Seq(1, 2)).contains("speedup@2"))
  }

  test("table8Rmat runs at small scale") {
    val md = Tables.table8Rmat(spark, scales = Seq(8), edgeFactors = Seq(4), rs = Seq((2, 3)))
    assert(md.contains("rMAT"))
  }

  test("bench_results files are written to the configured results dir") {
    Tables.table1Rho(spark, tiny(), maxS = 3)
    assert(java.nio.file.Files.exists(Harness.resultsDir.resolve("table1_rho.md")))
    assert(Harness.resultsDir.toString.contains("repro-results"), "smoke run must use the scratch dir")
  }
}
