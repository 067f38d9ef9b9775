package ndbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import java.util.concurrent.atomic.LongAdder
import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.control.NonFatal
import com.fasterxml.jackson.databind.json.JsonMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.cliques.Intersect
import repro.core.NucleusResult
import repro.graph.{CSRGraph, Orientation}
import repro.par.Par
import repro.sparkops.EdgeOps

/** One run of one workload. With `--trace 0` it measures the end-to-end
  * metrics with tracing off; with `--trace 1` it measures the same loop
  * untraced, then one traced iteration plus the replays and the 1-thread
  * run, and derives the per-layer metrics from the spans. Either way the
  * first result is checked against the workload's oracle (untimed) and every
  * timed iteration must reproduce the verified fingerprint.
  *
  * Writes a JSON report to `--report`; `run.py` turns it into the
  * benchmark's result line.
  */
object Main {

  /** Set-ups per end-to-end run; `setup_s` is their median. */
  val SetupRepeats = 3
  /** Untimed iterations after the first one: the JIT needs about three
    * decompositions before iteration times settle.
    */
  val WarmupIterations = 2
  /** Timed iterations made even when `--seconds` runs out first. */
  val MinSamples = 3

  final case class Args(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      threads: Int,
      report: String,
      gitSha: String,
      sourceDigest: String
  )

  final case class Fingerprint(n: Int, m: Long, rCliques: Long, sCliques: Long, histogram: Map[Long, Long]) {
    def toJson: Any = ListMap(
      "n" -> n,
      "m" -> m,
      "r_cliques" -> rCliques,
      "s_cliques" -> sCliques,
      "core_histogram" -> histogram.toSeq.sorted.map { case (k, c) => Seq(k, c) }
    )
  }

  object Fingerprint {
    def of(g: CSRGraph, res: NucleusResult): Fingerprint =
      Fingerprint(g.n, g.m, res.stats.numRCliques, res.stats.numSCliques, res.coreHistogram)
  }

  /** One iteration's output and timings. */
  final case class Iteration(res: NucleusResult, wallS: Double)

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val w = Workload.all.find(_.name == a.workload).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '${a.workload}'; known: ${Workload.all.map(_.name).mkString(", ")}"))
    require(a.threads >= 1 && a.threads <= Runtime.getRuntime.availableProcessors,
      s"threads must be in 1..nproc, got ${a.threads}")
    val report = Par.withThreads(a.threads)(new Run(w, a).execute())
    val json = JsonMapper.builder().addModule(DefaultScalaModule).build().writeValueAsString(report)
    Files.write(Paths.get(a.report), json.getBytes(StandardCharsets.UTF_8))
    System.exit(0)
  }

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def get(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(
      workload = get("workload"),
      seed = get("seed").toLong,
      seconds = get("seconds").toDouble,
      trace = get("trace") == "1",
      threads = get("threads").toInt,
      report = get("report"),
      gitSha = kv.getOrElse("git-sha", ""),
      sourceDigest = kv.getOrElse("source-digest", "")
    )
  }

  def median(xs: Seq[Double]): Double = {
    if (xs.isEmpty) return Double.NaN
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile with at least 10 samples beyond it, as
    * (value, percentile, samples beyond). With fewer than 11 samples no such
    * percentile exists and the maximum is reported, with 0 beyond.
    */
  def tail(xs: Seq[Double]): (Double, Double, Int) = {
    val s = xs.sorted
    val n = s.length
    if (n == 0) (Double.NaN, Double.NaN, 0)
    else if (n < 11) (s.last, 100.0, 0)
    else (s(n - 11), 100.0 * (n - 10) / n, 10)
  }

  /** Live heap after full collections, in MiB. */
  def liveHeapMiB(): Double = {
    var i = 0
    while (i < 3) { System.gc(); i += 1 }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  @inline def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** `Intersect.commonNeighbors` once over every r-clique of the table, on
    * the input graph (relabeled as the decomposition relabeled it; without
    * the contractions of a (2,3) peel). Returns (calls, total common
    * neighbours).
    */
  def intersectReplay(g: CSRGraph, res: NucleusResult): (Long, Long) = {
    val table = res.table
    val r = res.r
    val work =
      if (res.oldOf == null) g
      else {
        val newId = new Array[Int](g.n)
        var i = 0
        while (i < res.oldOf.length) { newId(res.oldOf(i)) = i; i += 1 }
        g.relabel(newId)
      }
    val maxDeg = math.max(1, work.maxDegree)
    val calls = new LongAdder
    val found = new LongAdder
    Par.forBlocked(0, table.capacity) { (lo, hi) =>
      val vs = new Array[Int](r)
      val out = new Array[Int](maxDeg)
      var c = 0L
      var f = 0L
      var slot = lo
      while (slot < hi) {
        if (table.isOccupied(slot)) {
          table.cliqueOf(slot, vs)
          f += Intersect.commonNeighbors(work, vs, r, out)
          c += 1
        }
        slot += 1
      }
      calls.add(c)
      found.add(f)
    }
    (calls.sum(), found.sum())
  }

  /** `CliqueTable.slotOf` once per r-clique of the table. Returns (lookups,
    * lookups that did not find the clique's own slot).
    */
  def lookupReplay(res: NucleusResult): (Long, Long) = {
    val table = res.table
    val lookups = new LongAdder
    val wrong = new LongAdder
    Par.forBlocked(0, table.capacity) { (lo, hi) =>
      val vs = new Array[Int](res.r)
      var c = 0L
      var bad = 0L
      var slot = lo
      while (slot < hi) {
        if (table.isOccupied(slot)) {
          table.cliqueOf(slot, vs)
          if (table.slotOf(vs) != slot) bad += 1
          c += 1
        }
        slot += 1
      }
      lookups.add(c)
      wrong.add(bad)
    }
    (lookups.sum(), wrong.sum())
  }
}

/** State of one run; see [[Main]]. */
final class Run(w: Workload, a: Main.Args) {
  import Main._

  private val tracer: Option[Tracer] = if (a.trace) Some(new Tracer(s"${w.name}-seed${a.seed}")) else None
  private var spark: SparkSession = _
  private var raw: DataFrame = _
  private var graph: CSRGraph = _
  private var fingerprint: Fingerprint = _
  private var attempted = 0
  private var failed = 0
  private val wallSamples = ArrayBuffer.empty[Double]
  private val phaseGaps = ArrayBuffer.empty[Double]
  private val failures = ArrayBuffer.empty[String]

  private def log(msg: String): Unit = println(s"[ndbench ${w.name}] $msg")

  private def span[A](name: String)(body: => A): A = tracer.fold(body)(_.span(name)(body))

  /** Session start, input generation and the program's ingest
    * (`EdgeOps.toCSR`), the same in both modes.
    */
  private def setUp(): Double = {
    val t0 = System.nanoTime()
    span("setup") {
      span("spark.session") {
        if (spark != null) spark.stop()
        spark = Input.session(a.threads)
      }
      raw = span("sparkgen.generate")(Input.rawEdges(spark, a.seed))
      graph = span("sparkops.to_csr")(Input.ingest(raw))
    }
    secondsSince(t0)
  }

  /** Splits the ingest into its two layers by replaying them after the
    * set-ups: canonicalize → collect, then `CSRGraph.fromEdges` on the
    * collected rows. The program's own `toCSR` is timed as one call in
    * `setUp`. Returns the number of rows collected.
    */
  private def ingestReplay(tr: Tracer): Long = {
    val rows = tr.span("sparkops.collect_replay") {
      val rs = EdgeOps.canonicalize(raw).collect()
      tr.attr("rows", rs.length.toLong)
      rs
    }
    val replayed = tr.span("graph.csr_build_replay") {
      CSRGraph.fromEdges(rows.map(row => (row.getLong(0).toInt, row.getLong(1).toInt)), graph.n)
    }
    if (replayed.m != graph.m) failures += s"ingest replay built m=${replayed.m}, toCSR m=${graph.m}"
    rows.length.toLong
  }

  /** One untraced decomposition of the set-up's graph. */
  private def iterate(): Iteration = {
    val t0 = System.nanoTime()
    val res = w.decompose(graph)
    Iteration(res, secondsSince(t0))
  }

  /** Checks the first result against the oracle and pins the verified
    * fingerprint every later iteration must reproduce. The oracle runs
    * while the untimed warm-up iterations do, to keep runs short.
    */
  private def verifyWhileWarmingUp(first: Iteration): (Boolean, Double) = {
    val t0 = System.nanoTime()
    val oracle = Future(w.oracle(graph))(ExecutionContext.global)
    for (_ <- 1 to WarmupIterations) iterate()
    val ok = Await.result(oracle, Duration.Inf) == first.res.coreMap
    val s = secondsSince(t0)
    fingerprint = Fingerprint.of(graph, first.res)
    log(f"oracle ${w.oracleName}: ${if (ok) "match" else "MISMATCH"} ($s%.1f s); n=${fingerprint.n} " +
      s"m=${fingerprint.m} r-cliques=${fingerprint.rCliques} s-cliques=${fingerprint.sCliques}")
    if (!ok) failures += s"core map differs from ${w.oracleName}"
    (ok, s)
  }

  /** Counts `res` as attempted, and as failed unless it reproduces the
    * verified fingerprint.
    */
  private def checkFingerprint(what: String, res: NucleusResult): Boolean = {
    attempted += 1
    val ok = Fingerprint.of(graph, res) == fingerprint
    if (!ok) {
      failed += 1
      failures += s"$what: fingerprint differs from the verified one"
    }
    ok
  }

  /** Times iterations for `--seconds` (at least [[MinSamples]]). */
  private def measure(): Iteration = {
    var last: Iteration = null
    val deadline = System.nanoTime() + (a.seconds * 1e9).toLong
    while (System.nanoTime() < deadline || wallSamples.length < MinSamples) {
      try {
        val it = iterate()
        if (checkFingerprint(s"iteration ${attempted + 1}", it.res)) {
          wallSamples += it.wallS
          phaseGaps += math.abs(it.wallS * 1000 - it.res.stats.totalMs) / (it.wallS * 1000)
          last = it
        }
      } catch {
        case NonFatal(e) =>
          attempted += 1
          failed += 1
          failures += s"iteration $attempted: $e"
      }
      if (attempted >= 2 * MinSamples && wallSamples.isEmpty)
        throw new IllegalStateException(s"no iteration succeeded: ${failures.mkString("; ")}")
    }
    last
  }

  def execute(): Any = {
    val setups = (1 to SetupRepeats).map { i =>
      val s = setUp()
      log(f"set-up $i: $s%.2f s")
      s
    }
    val rowsCollected = tracer.fold(0L)(ingestReplay)
    spark.stop()
    spark = null
    raw = null
    val (oracleOk, oracleS) = span("oracle")(verifyWhileWarmingUp(iterate()))
    val last = measure()
    val p50 = median(wallSamples.toSeq)
    log(f"time_p50_s=$p50%.3f over ${wallSamples.length} samples, failed $failed/$attempted")
    val metrics = tracer match {
      case None     => endToEndMetrics(last, p50, setups)
      case Some(tr) => perLayerMetrics(tr, rowsCollected)
    }
    val (tailV, tailP, tailBeyond) = tail(wallSamples.toSeq)
    val rt = Runtime.getRuntime
    ListMap(
      "workload" -> w.name,
      "seed" -> a.seed,
      "trace" -> (if (a.trace) 1 else 0),
      "seconds" -> a.seconds,
      "env" -> ListMap(
        "threads" -> a.threads,
        "nproc" -> rt.availableProcessors,
        "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
        "max_heap_mib" -> rt.maxMemory / (1024.0 * 1024.0),
        "spark" -> org.apache.spark.SPARK_VERSION,
        "scala" -> scala.util.Properties.versionNumberString,
        "spark_partitions" -> Input.Partitions,
        "git_sha" -> a.gitSha,
        "source_digest" -> a.sourceDigest
      ),
      "fingerprint" -> fingerprint.toJson,
      "oracle" -> ListMap("name" -> w.oracleName, "ok" -> oracleOk, "seconds" -> oracleS),
      "attempted" -> attempted,
      "failed" -> failed,
      "failed_frac" -> failed.toDouble / math.max(1, attempted),
      "failures" -> failures,
      "setup_samples_s" -> setups,
      "wall_samples_s" -> wallSamples,
      "phase_gap_frac_max" -> (if (phaseGaps.isEmpty) Double.NaN else phaseGaps.max),
      "time_tail" -> ListMap("value_s" -> tailV, "percentile" -> tailP, "beyond" -> tailBeyond,
        "samples" -> wallSamples.length),
      "metrics" -> metrics,
      "trace" -> tracer.map(_.toJson)
    )
  }

  private def endToEndMetrics(last: Iteration, p50: Double, setups: Seq[Double]): Any = {
    val heap = liveHeapMiB()
    // read after the heap measurement, so the last result is still held by it
    val rCliques = last.res.stats.numRCliques
    log(f"live heap with the result held: $heap%.0f MiB")
    ListMap(
      "time_p50_s" -> p50,
      "rcliques_per_s" -> rCliques / p50,
      "setup_s" -> median(setups),
      "result_heap_mb" -> heap
    )
  }

  /** One traced iteration, the replays and the 1-thread run. */
  private def perLayerMetrics(tr: Tracer, rowsCollected: Long): Any = {
    val untracedS = median(wallSamples.toSeq)
    val g = graph
    val res = tr.span("core.decompose")(w.decompose(g))
    val st = res.stats
    tr.phases("core.decompose", Seq("graph.orient" -> st.tOrientMs, "cliques.list" -> st.tListMs,
      "core.table_build" -> st.tBuildMs, "cliques.count" -> st.tCountMs, "core.peel" -> st.tPeelMs))
    checkFingerprint("traced iteration", res)
    val degeneracy = tr.span("graph.degeneracy")(Orientation.degeneracy(g))
    val intersectCalls = tr.span("cliques.intersect_replay") {
      val (calls, found) = intersectReplay(g, res)
      tr.attr("calls", calls)
      tr.attr("common_neighbours", found)
      calls
    }
    val lookups = tr.span("core.lookup_replay") {
      val (n, wrong) = lookupReplay(res)
      tr.attr("lookups", n)
      if (wrong != 0) failures += s"slotOf missed $wrong of $n r-cliques"
      n
    }
    val oneThread = tr.span("par.decompose_1thread")(Par.withThreads(1)(w.decompose(g)))
    checkFingerprint("1-thread decomposition", oneThread)

    val decomposeS = tr.seconds("core.decompose")
    log(f"traced decompose $decomposeS%.3f s against the untraced median $untracedS%.3f s")
    ListMap(
      "sparkops.to_csr_s" -> tr.seconds("sparkops.to_csr"),
      "sparkops.collect_s" -> tr.seconds("sparkops.collect_replay"),
      "sparkops.rows" -> rowsCollected,
      "graph.csr_build_s" -> tr.seconds("graph.csr_build_replay"),
      "graph.orient_s" -> st.tOrientMs / 1000,
      "graph.degeneracy" -> degeneracy,
      "cliques.list_s" -> st.tListMs / 1000,
      "cliques.count_s" -> st.tCountMs / 1000,
      "core.table_build_s" -> st.tBuildMs / 1000,
      "core.peel_s" -> st.tPeelMs / 1000,
      "core.peel_share" -> st.tPeelMs / 1000 / decomposeS,
      "core.rounds" -> st.rounds,
      "core.r_cliques" -> st.numRCliques,
      "core.s_cliques" -> st.numSCliques,
      "core.update_discoveries" -> st.updateScliqueDiscoveries,
      "core.rediscovery_ratio" -> st.updateScliqueDiscoveries.toDouble / math.max(1L, st.numSCliques),
      "core.contractions" -> st.contractions,
      "core.table_words" -> st.tableMemory.totalWords,
      "cliques.intersect_replay_s" -> tr.seconds("cliques.intersect_replay"),
      "cliques.intersect_calls" -> intersectCalls,
      "core.lookup_replay_s" -> tr.seconds("core.lookup_replay"),
      "core.lookups" -> lookups,
      "par.threads" -> a.threads,
      "par.speedup" -> tr.seconds("par.decompose_1thread") / untracedS,
      "trace.overhead_frac" -> (decomposeS - untracedS) / untracedS
    )
  }
}
