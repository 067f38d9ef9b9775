package repro.harness

import org.apache.spark.sql.SparkSession
import repro.graph.CSRGraph
import repro.sparkgen.GraphGen
import repro.sparkops.EdgeOps

/** Shared infrastructure for the per-table benchmark runners: graph loading
  * (Spark-generated SNAP substitutes, cached per JVM), repeated-timing, and
  * markdown table formatting. Every evaluation-table runner returns its
  * rendered table and appends it to `bench_results/`.
  */
object Harness {

  private val cache = scala.collection.concurrent.TrieMap[String, CSRGraph]()

  /** The SNAP-substitute suite in the paper's size order. */
  val snapNames: Seq[String] =
    Seq("amazon-lite", "dblp-lite", "youtube-lite", "skitter-lite", "livejournal-lite", "orkut-lite")

  def graph(spark: SparkSession, name: String): CSRGraph =
    cache.getOrElseUpdate(name, EdgeOps.csrOf(GraphGen.snapLite(spark, name)))

  /** Registers a custom graph under `name` (tests use this to run the table
    * runners on tiny inputs).
    */
  def register(name: String, g: CSRGraph): Unit = cache.put(name, g)

  def rmatGraph(spark: SparkSession, scale: Int, edgeFactor: Int, seed: Long = 42): CSRGraph =
    cache.getOrElseUpdate(
      s"rmat-$scale-$edgeFactor-$seed",
      EdgeOps.csrOf(GraphGen.rmatEdges(spark, scale, edgeFactor, seed))
    )

  /** Milliseconds of `body`, best of `reps` runs (first run warms JIT). */
  def timeMs[A](reps: Int = 2)(body: => A): (A, Double) = {
    var best = Double.MaxValue
    var last: A = null.asInstanceOf[A]
    for (_ <- 0 until math.max(1, reps)) {
      val t0 = System.nanoTime()
      last = body
      val ms = (System.nanoTime() - t0) / 1e6
      if (ms < best) best = ms
    }
    (last, best)
  }

  /** Renders a markdown table. */
  def markdown(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb.append(s"\n### $title\n\n")
    sb.append(header.mkString("| ", " | ", " |\n"))
    sb.append(header.map(_ => "---").mkString("| ", " | ", " |\n"))
    rows.foreach(r => sb.append(r.mkString("| ", " | ", " |\n")))
    sb.toString
  }

  def fmt(d: Double): String =
    if (d.isNaN || d.isInfinite) "—"
    else if (d >= 100) f"$d%.0f"
    else if (d >= 1) f"$d%.2f"
    else f"$d%.3f"

  /** Result directory: `repro.results.dir` system property if set (tests
    * point it at a scratch dir), else `bench_results/` under the repo root —
    * found by walking up from the working directory to the nearest
    * `build.sbt`, since sbt forks subproject tests with the subproject as
    * their working directory.
    */
  def resultsDir: java.nio.file.Path =
    sys.props.get("repro.results.dir").map(java.nio.file.Paths.get(_)).getOrElse {
      var d = java.nio.file.Paths.get(sys.props("user.dir")).toAbsolutePath.normalize()
      while (d != null && !java.nio.file.Files.exists(d.resolve("build.sbt"))) d = d.getParent
      val root = if (d == null) java.nio.file.Paths.get(".") else d
      root.resolve("bench_results")
    }

  /** Writes a rendered table under [[resultsDir]] and echoes it. */
  def emit(fileName: String, content: String): String = {
    val dir = resultsDir
    java.nio.file.Files.createDirectories(dir)
    java.nio.file.Files.write(
      dir.resolve(fileName),
      content.getBytes("UTF-8"),
      java.nio.file.StandardOpenOption.CREATE,
      java.nio.file.StandardOpenOption.TRUNCATE_EXISTING
    )
    println(content)
    content
  }

  /** All (r, s) with r < s <= maxS, in increasing work order (by s then r). */
  def rsCombos(maxS: Int, minR: Int = 1): Seq[(Int, Int)] =
    for (s <- 2 to maxS; r <- minR until s) yield (r, s)
}
