package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Edge-weight models for the Table III experiment (AE / RW / UF / SK) and
  * for weighting otherwise-unweighted datasets (the paper weights DT and PA
  * with random-walk-with-restart node relevance [23]).
  *
  * All models emit weights quantized to a bounded number of distinct levels.
  * Rating data is naturally discrete, and the paper's peel/expand loops
  * operate per distinct weight; a bounded level count keeps the dataflow
  * round count bounded without changing the algorithms' behaviour shape
  * (documented in DESIGN.md §4).
  */
object Weights {
  import Bipartite._

  /** AE: all edge weights equal. */
  def allEqual(edges: DataFrame, value: Double = 1.0): DataFrame =
    normalize(edges).withColumn(W, lit(value))

  /** UF: uniform over `levels` integer levels 1..levels. */
  def uniform(edges: DataFrame, levels: Int = 32, seed: Long = 11): DataFrame =
    normalize(edges).withColumn(W,
      (floor(rand(seed) * levels) + 1).cast("double"))

  /** Ratings-style weights in {0.5, 1.0, ..., 5.0} (MovieLens analog).
    * Each item (lower vertex) carries a deterministic hash-based quality in
    * [2.0, 4.4] and individual ratings scatter around it — so per-item
    * average ratings vary (real rating data does; the C_{4*} model of the
    * effectiveness study needs items with average rating >= 4 to exist).
    */
  def ratings(edges: DataFrame, seed: Long = 12): DataFrame = {
    val quality = lit(2.0) +
      (pmod(col(V) * lit(2654435761L), lit(97)).cast("double") / 96.0) * 2.4
    normalize(edges).withColumn(W,
      least(lit(5.0), greatest(lit(0.5),
        round((quality + (rand(seed) - 0.5) * 2.4) * 2) / 2)))
  }

  /** SK: skew-normal weights (Azzalini construction: X = d|z0| + sqrt(1-d^2) z1
    * with shape lambda), quantized to `levels` levels. The paper reports
    * skewness 1.02; the skew-normal family tops out just under 1, so we use a
    * large shape (lambda = 8, skewness ~ 0.96) — the closest member of the
    * family (substitution documented in DESIGN.md).
    */
  def skewNormal(edges: DataFrame, levels: Int = 32, seed: Long = 13,
                 lambda: Double = 8.0): DataFrame = {
    val d = lambda / math.sqrt(1 + lambda * lambda)
    val e = normalize(edges)
    // Box-Muller from two independent uniforms per normal draw.
    val z0 = sqrt(lit(-2.0) * log(rand(seed) + lit(1e-12))) * cos(lit(2 * math.Pi) * rand(seed + 1))
    val z1 = sqrt(lit(-2.0) * log(rand(seed + 2) + lit(1e-12))) * cos(lit(2 * math.Pi) * rand(seed + 3))
    val x = lit(d) * abs(z0) + lit(math.sqrt(1 - d * d)) * z1
    // Bulk of the skew-normal mass lies in [-2, 4]; affine-map and clamp.
    val lvl = least(lit(levels), greatest(lit(1),
      (floor((x + lit(2.0)) / lit(6.0) * levels) + 1).cast("int")))
    e.withColumn(W, lvl.cast("double"))
  }

  /** RW: random-walk-with-restart proxy. The paper computes per-node RWR
    * relevance; full pairwise RWR is quadratic, so we run a global
    * degree-normalized power iteration (PageRank-style) over the bipartite
    * adjacency and set w(u,v) = rank-quantized(score(u) * score(v)). This
    * preserves the tested property: weights correlated with graph structure.
    */
  def rwr(edges: DataFrame, levels: Int = 32, iters: Int = 6,
          restart: Double = 0.15): DataFrame = {
    val e = cp(normalize(edges))
    val adj = cp(sym(e).select(col("src"), col("dst")))
    val deg = adj.groupBy("src").agg(count(lit(1)).as("deg"))
    val n = deg.count()
    var score = cp(deg.select(col("src").as("gid"), lit(1.0 / n).as("r")))
    val outDeg = cp(deg.select(col("src").as("gid"), col("deg")))
    for (_ <- 1 to iters) {
      val contrib = adj
        .join(score, adj("src") === score("gid"))
        .join(outDeg, adj("src") === outDeg("gid"))
        .groupBy(col("dst")).agg(sum(col("r") / col("deg")).as("inR"))
        .select(col("dst").as("gid"), col("inR"))
      score = cp(score.select(col("gid")).join(contrib, Seq("gid"), "left")
        .select(col("gid"),
          (lit(restart / n) + lit(1 - restart) * coalesce(col("inR"), lit(0.0))).as("r")))
    }
    val su = score.filter(col("gid") % 2 === 0).select(shiftRight(col("gid"), 1).as(U), col("r").as("ru"))
    val sl = score.filter(col("gid") % 2 =!= 0).select(shiftRight(col("gid"), 1).as(V), col("r").as("rl"))
    val prod = e.join(su, Seq(U)).join(sl, Seq(V))
      .select(col(U), col(V), (col("ru") * col("rl")).as("p"))
    // Rank-quantize the products into `levels` levels.
    val win = org.apache.spark.sql.expressions.Window.orderBy(col("p"))
    cp(prod.withColumn("pr", percent_rank().over(win))
      .select(col(U), col(V),
        (least(lit(levels - 1), floor(col("pr") * levels)) + 1).cast("double").as(W)))
  }
}
