package repro.graph

import org.apache.spark.sql.{Column, DataFrame, Observation}
import org.apache.spark.sql.functions._

/** The message-passing fixpoint shared by the offsets, the core numbers, the
  * component labels and the (alpha, beta)-core peel.
  *
  * Every vertex of a bipartite edge list is a row `(gid, nbrs: array<long>,
  * s)` holding its neighbors and its current value. A half-step makes one
  * layer send `s` along `explode(nbrs)`; each vertex of the other layer
  * groups what it receives with its own row (the only shuffle) and replaces
  * `s` by its layer's `step` over `msgs` (the received values) and `s` (its
  * old value). The number of rows whose value changed is counted in the
  * same job by an [[Observation]]. The layers alternate, upper first.
  *
  * When a half-step other than the first changes no row, the receiving
  * layer's values are its step over the sender's values, which were in
  * turn computed from those same receiving values: both layers are at a
  * fixpoint. Termination is the caller's condition: the offset and core
  * updates only lower non-negative integers, the min-label update only
  * lowers gids, the peel's alive bit only turns off.
  */
private[graph] object Fixpoint {
  import Bipartite._

  /** A layer's update rule. `init` may read `gid` and `nbrs`; `step` reads
    * `msgs` and the old value `s`.
    */
  final case class Layer(init: Column, step: Column)

  /** Runs the fixpoint on `edges0`: DataFrame(gid: long, s) for every vertex. */
  def run(edges0: DataFrame, upper: Layer, lower: Layer): DataFrame = {
    val e = normalize(edges0)
    val rows = cp(
      e.select(gidU(col(U)).as("gid"), gidL(col(V)).as("nbr"))
        .unionByName(e.select(gidL(col(V)).as("gid"), gidU(col(U)).as("nbr")))
        .groupBy("gid").agg(collect_list(col("nbr")).as("nbrs")))
    val isUpper = col("gid") % 2 === 0
    var up = rows.filter(isUpper).withColumn("s", upper.init)
    var lo = rows.filter(!isUpper).withColumn("s", lower.init)
    var half = 0
    var done = false
    while (!done) {
      half += 1
      val changed =
        if (half % 2 == 1) { val (n, c) = halfStep(lo, up, upper); up = n; c }
        else { val (n, c) = halfStep(up, lo, lower); lo = n; c }
      done = half >= 2 && changed == 0
    }
    up.select("gid", "s").unionByName(lo.select("gid", "s"))
  }

  /** `to`'s rows after one update from `from`'s values, and how many changed. */
  private def halfStep(from: DataFrame, to: DataFrame, layer: Layer): (DataFrame, Long) = {
    val msgs = from.select(explode(col("nbrs")).as("gid"), col("s").as("msg"))
    val changed = Observation()
    val next = cp(
      to.unionByName(msgs, allowMissingColumns = true)
        .groupBy("gid")
        .agg(first(col("nbrs"), ignoreNulls = true).as("nbrs"),
          first(col("s"), ignoreNulls = true).as("s"),
          collect_list(col("msg")).as("msgs"))
        .withColumn("next", layer.step)
        .observe(changed, count_if(!(col("next") <=> col("s"))).as("n"))
        .select(col("gid"), col("nbrs"), col("next").as("s")))
    (next, changed.get("n").asInstanceOf[Long])
  }
}
