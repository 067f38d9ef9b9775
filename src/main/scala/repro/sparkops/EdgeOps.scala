package repro.sparkops

import org.apache.spark.sql.{DataFrame, Encoders}
import org.apache.spark.sql.functions._
import repro.graph.CSRGraph

/** DataFrame-side edge-list preparation: the outer orchestration layer that
  * feeds the shared-memory nucleus decomposition core (DESIGN.md
  * "Reproduction strategy").
  */
object EdgeOps {

  /** Canonicalizes an edge DataFrame (columns src, dst): drops self loops,
    * orients each undirected edge as (u < v), and deduplicates.
    */
  def canonicalize(edges: DataFrame): DataFrame =
    edges
      .select(
        least(col("src"), col("dst")).cast("long").as("src"),
        greatest(col("src"), col("dst")).cast("long").as("dst")
      )
      .where(col("src") =!= col("dst"))
      .distinct()

  /** Per-vertex degrees of a canonical edge list (columns v, degree). */
  def degrees(canonical: DataFrame): DataFrame =
    canonical
      .select(col("src").as("v"))
      .unionByName(canonical.select(col("dst").as("v")))
      .groupBy("v")
      .agg(count(lit(1)).as("degree"))

  /** n (max id + 1) and m of a canonical edge list, computed in Spark
    * without collecting it.
    */
  def sizeStats(canonical: DataFrame): (Long, Long) = {
    val row = canonical
      .agg(
        greatest(max(col("src")), max(col("dst"))).as("maxid"),
        count(lit(1)).as("m")
      )
      .collect()(0)
    if (row.isNullAt(0)) (0L, 0L) else (row.getLong(0) + 1, row.getLong(1))
  }

  /** Collects a canonical edge list into an in-memory CSR graph for the
    * shared-memory core, as packed keys `(src << 32) | dst` built in Spark.
    * Vertex ids must fit in Int: an edge outside that range becomes the
    * key -1, which [[CSRGraph.fromKeys]] rejects.
    */
  def toCSR(canonical: DataFrame): CSRGraph = {
    val src = col("src").cast("long")
    val dst = col("dst").cast("long")
    val keys = canonical
      .select(when(src >= 0 && dst <= Int.MaxValue, shiftleft(src, 32).bitwiseOR(dst)).otherwise(-1L))
      .as(Encoders.scalaLong)
      .collect()
    CSRGraph.fromKeys(keys)
  }

  /** One-call pipeline: generate/ingest → canonicalize → CSR. */
  def csrOf(rawEdges: DataFrame): CSRGraph = toCSR(canonicalize(rawEdges))
}
