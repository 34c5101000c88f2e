package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic bipartite graphs with power-law-skewed endpoints: the source
  * of the dataset analogs in `repro.exp` and of the generated test graphs.
  */
object SynthData {

  /** Power-law endpoint sampler in [1, n]: inverse of the continuous bounded
    * zipf CDF F(k) = (k^(1-z) - 1)/(n^(1-z) - 1) (z = 1 uses the log form).
    * z <= 0 falls back to uniform. It spreads ranks across the whole
    * domain, which matters when sampled pairs are deduplicated into an edge
    * list.
    */
  private def plawCol(r: org.apache.spark.sql.Column, n: Long, z: Double): org.apache.spark.sql.Column =
    if (z <= 0) least(lit(n), greatest(lit(1L), (r * n + 1).cast(LongType)))
    else if (math.abs(z - 1.0) < 1e-9)
      least(lit(n), greatest(lit(1L), exp(r * math.log(n.toDouble)).cast(LongType)))
    else {
      val e = 1.0 - z
      least(lit(n), greatest(lit(1L),
        pow(r * (math.pow(n.toDouble, e) - 1.0) + 1.0, lit(1.0 / e)).cast(LongType)))
    }

  /** Synthetic bipartite edge list (u: long in [1,nU], v: long in [1,nL],
    * w = 1.0) with power-law-skewed endpoints, deduplicated. Deterministic in
    * (sizes, skews, seed) for a fixed partitioning; the realized edge count
    * is slightly below `targetEdges` because duplicates collapse.
    */
  def bipartite(spark: SparkSession, nU: Long, nL: Long, targetEdges: Long,
                zU: Double = 0.8, zL: Double = 0.8, seed: Long = 7): DataFrame = {
    val attempts = math.max(1L, (targetEdges * 1.6).toLong)
    spark.range(attempts).select(
      plawCol(rand(seed), nU, zU) as "u",
      plawCol(rand(seed + 1), nL, zL) as "v",
    ).distinct().withColumn("w", lit(1.0))
  }
}
