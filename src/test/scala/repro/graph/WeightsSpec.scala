package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData, TestGraphs}

/** Weight-model generators: topology preservation, level bounds, and DuckDB
  * checks on the distribution statistics.
  */
class WeightsSpec extends SparkSpec {
  import TestGraphs._

  private lazy val base = Bipartite.cp(SynthData.bipartite(spark, 60, 60, 600, 0.8, 0.8, seed = 5))

  private def topologyOf(df: org.apache.spark.sql.DataFrame): Set[(Long, Long)] =
    df.select("u", "v").collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  private def weightsOf(df: org.apache.spark.sql.DataFrame): Array[Double] =
    df.select("w").collect().map(_.getDouble(0))

  test("allEqual: constant weights, topology untouched") {
    val w = Weights.allEqual(base)
    assert(weightsOf(w).toSet == Set(1.0))
    assert(topologyOf(w) == topologyOf(base))
  }

  test("uniform: integer levels within [1, levels], topology untouched") {
    val w = Weights.uniform(base, levels = 8, seed = 3)
    val ws = weightsOf(w)
    assert(ws.forall(x => x >= 1.0 && x <= 8.0 && x == math.floor(x)))
    assert(ws.toSet.size > 2) // actually spread across levels
    assert(topologyOf(w) == topologyOf(base))
  }

  test("ratings: half-star levels in [0.5, 5.0], skewed high") {
    val w = Weights.ratings(base, seed = 3)
    val ws = weightsOf(w)
    assert(ws.forall(x => x >= 0.5 && x <= 5.0 && (x * 2) == math.floor(x * 2)))
    val mean = ws.sum / ws.length
    assert(mean > 2.5, s"ratings should skew high, mean=$mean")
  }

  test("skewNormal: bounded levels and positive skew") {
    val w = Weights.skewNormal(base, levels = 16, seed = 3)
    val ws = weightsOf(w)
    assert(ws.forall(x => x >= 1.0 && x <= 16.0))
    val n = ws.length
    val mean = ws.sum / n
    val sd = math.sqrt(ws.map(x => (x - mean) * (x - mean)).sum / n)
    val skew = ws.map(x => math.pow((x - mean) / sd, 3)).sum / n
    assert(skew > 0.1, s"expected positive skewness, got $skew")
  }

  test("rwr: weights correlate with endpoint degrees") {
    val w = Bipartite.cp(Weights.rwr(base, levels = 16))
    assert(topologyOf(w) == topologyOf(base))
    val ws = weightsOf(w)
    assert(ws.forall(x => x >= 1.0 && x <= 16.0))
    // edges incident to the max-degree upper vertex should carry
    // above-average weight (RWR relevance grows with connectivity)
    val hub = Bipartite.degreesU(base).orderBy(desc("deg")).head.getLong(0)
    val hubAvg = w.filter(col("u") === hub).agg(avg("w")).head.getDouble(0)
    val allAvg = w.agg(avg("w")).head.getDouble(0)
    assert(hubAvg > allAvg, s"hub=$hubAvg overall=$allAvg")
    // Negative ids: every edge keeps a weight.
    val neg = toDF(spark, negated(fig2))
    assert(topologyOf(Weights.rwr(neg, levels = 4)) == topologyOf(neg))
  }

  test("uniform weight stats agree with DuckDB") {
    val w = Weights.uniform(toDF(spark, fig2), levels = 4, seed = 9)
    Oracle.assertEquivalent(
      w.agg(count(lit(1)).as("n"), min("w").as("mn"), max("w").as("mx")),
      "SELECT count(*) AS n, min(CAST(w AS DOUBLE)) AS mn, max(CAST(w AS DOUBLE)) AS mx FROM e",
      "e" -> w)
  }

  test("quantized models keep the distinct level count bounded") {
    for (w <- Seq(Weights.uniform(base, 16, 3), Weights.skewNormal(base, 16, 3),
                  Weights.rwr(base, 16))) {
      assert(w.select("w").distinct().count() <= 16)
    }
  }
}
