package ndbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{Nd, PktTruss}
import repro.core.{ArbNucleusDecomp, NucleusResult}
import repro.graph.CSRGraph
import repro.sparkgen.GraphGen
import repro.sparkops.EdgeOps

/** One benchmark workload: the (r,s) decomposition an iteration runs on
  * the set-up's graph, and the independent oracle its full core map is
  * checked against once per run.
  */
final case class Workload(r: Int, s: Int, name: String, oracleName: String, oracle: CSRGraph => Map[Seq[Int], Long]) {
  /** The program's decomposition with its default configuration
    * (`NucleusConfig.optimal`).
    */
  def decompose(g: CSRGraph): NucleusResult = ArbNucleusDecomp.decompose(g, r, s)
}

object Workload {
  // Why each workload exists is recorded in BENCHMARK.json and README.md.
  val all: Seq[Workload] = Seq(
    Workload(2, 3, "truss-orkut", "PktTruss.run", g => PktTruss.run(g).coreMap),
    Workload(3, 4, "nucleus34-orkut", "Nd.run", g => Nd.run(g, 3, 4).coreMap)
  )
}

/** The input every workload uses: the orkut-lite substitute recipe
  * (`GraphGen.snapRecipes`), rMAT edges from the benchmark's seed plus the
  * recipe's planted overlapping cliques.
  */
object Input {
  val Recipe = "orkut-lite"

  /** Spark partitions for generation and shuffles. `rand(seed)` is seeded
    * per partition, so a partition count that followed the core count would
    * make the generated graph depend on the machine.
    */
  val Partitions = 8

  def session(threads: Int): SparkSession = {
    val spark = SparkSession.builder()
      .master(s"local[$threads]")
      .appName("ndbench")
      .config("spark.default.parallelism", Partitions.toLong)
      .config("spark.sql.shuffle.partitions", Partitions.toLong)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark
  }

  /** Raw (uncanonicalized) edge DataFrame; lazily evaluated. */
  def rawEdges(spark: SparkSession, seed: Long): DataFrame = {
    val (scale, edgeFactor, communities, size, overlap) = GraphGen.snapRecipes(Recipe)
    GraphGen.rmatEdges(spark, scale, edgeFactor, seed)
      .unionByName(GraphGen.plantedCliques(spark, base = 1L << (scale - 2), communities, size, overlap))
  }

  /** The program's ingest path: canonicalize → collect → CSR. */
  def ingest(raw: DataFrame): CSRGraph = EdgeOps.toCSR(EdgeOps.canonicalize(raw))
}
