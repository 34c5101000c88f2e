package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Peeling to the (alpha, beta)-core — the dataflow rendition of the paper's
  * queue-based peeling as an alive bit on the shared [[Fixpoint]] (the
  * Montresor et al. update with a threshold in place of the core number).
  */
object Peel {
  import Bipartite._

  /** The (alpha, beta)-core of `edges0`: an upper vertex stays alive while at
    * least alpha of its neighbors are alive, a lower one while at least beta
    * are; the core is the edges whose two endpoints are alive. Bits only
    * turn off, so the fixpoint terminates.
    */
  def core(edges0: DataFrame, alpha: Int, beta: Int): DataFrame = {
    val edges = normalize(edges0)
    val alive = Fixpoint.run(edges, aliveWhile(alpha), aliveWhile(beta)).filter(col("s")).select(col("gid"))
    cp(edges
      .join(alive.withColumnRenamed("gid", "ug"), gidU(col(U)) === col("ug"), "left_semi")
      .join(alive.withColumnRenamed("gid", "lg"), gidL(col(V)) === col("lg"), "left_semi"))
  }

  private def aliveWhile(k: Int): Fixpoint.Layer = Fixpoint.Layer(
    init = size(col("nbrs")) >= k,
    step = col("s") && size(filter(col("msgs"), m => m)) >= k)
}
