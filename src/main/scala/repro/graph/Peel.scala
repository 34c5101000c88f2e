package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Fixpoint peeling to the (alpha, beta)-core as iterated semi-join degree
  * filtering — the dataflow rendition of the paper's queue-based peeling.
  */
object Peel {
  import Bipartite._

  /** The (alpha, beta)-core of `edges0`: repeatedly drop upper vertices of
    * degree < alpha and lower vertices of degree < beta until stable.
    */
  def core(edges0: DataFrame, alpha: Int, beta: Int, maxIter: Int = 100000): DataFrame = {
    var edges = cp(normalize(edges0))
    var n = edges.count()
    var it = 0
    var converged = n == 0
    while (!converged) {
      it += 1
      require(it <= maxIter, s"Peel.core did not converge within $maxIter iterations")
      val goodU = degreesU(edges).filter(col("deg") >= alpha).select(U)
      val goodL = degreesL(edges).filter(col("deg") >= beta).select(V)
      val next = cp(edges.join(goodU, Seq(U), "left_semi").join(goodL, Seq(V), "left_semi"))
      val m = next.count()
      converged = m == n
      edges = next
      n = m
    }
    edges
  }
}
