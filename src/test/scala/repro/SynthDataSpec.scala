package repro

import org.apache.spark.sql.functions._
import repro.graph.Bipartite

/** The skewed bipartite generator: id ranges, deduplication, hubs. */
class SynthDataSpec extends SparkSpec {

  test("bipartite generator: ids within range, no duplicate edges") {
    val g = Bipartite.cp(SynthData.bipartite(spark, 50, 80, 500, 0.9, 0.9, seed = 2))
    val st = Bipartite.stats(g)
    assert(st.nU <= 50 && st.nL <= 80)
    assert(g.select("u", "v").distinct().count() == st.nE)
    val r = g.agg(min("u"), max("u"), min("v"), max("v")).head
    assert(r.getLong(0) >= 1 && r.getLong(1) <= 50)
    assert(r.getLong(2) >= 1 && r.getLong(3) <= 80)
  }

  test("bipartite generator: skew produces hubs") {
    val g = Bipartite.cp(SynthData.bipartite(spark, 200, 200, 2000, 1.2, 1.2, seed = 3))
    val maxDeg = Bipartite.alphaMax(g)
    val avgDeg = Bipartite.stats(g).nE.toDouble / Bipartite.stats(g).nU
    assert(maxDeg > 3 * avgDeg, s"max=$maxDeg avg=$avgDeg")
  }

  test("zero skew falls back to uniform endpoints") {
    val g = Bipartite.cp(SynthData.bipartite(spark, 100, 100, 1000, 0.0, 0.0, seed = 4))
    assert(Bipartite.stats(g).nU > 80) // uniform sampling covers most ids
  }
}
