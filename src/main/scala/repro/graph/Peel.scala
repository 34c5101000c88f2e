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
    val alive = edges.sparkSession.createDataFrame(Fixpoint.run(edges, aliveWhile(alpha), aliveWhile(beta))
      .filter(_._2)).select(col("_1").as("gid"))
    cp(edges
      .join(alive.withColumnRenamed("gid", "ug"), gidU(col(U)) === col("ug"), "left_semi")
      .join(alive.withColumnRenamed("gid", "lg"), gidL(col(V)) === col("lg"), "left_semi"))
  }

  private def aliveWhile(k: Int): Fixpoint.Layer[Boolean] =
    Fixpoint.Layer(init = (_, deg) => deg >= k, step = (s, msgs) => s && msgs.count(identity) >= k)
}
