package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Butterfly (2x2-biclique) support counting and k-bitruss peeling over edge
  * lists — substrate for the Table II model comparison (bitruss with
  * k = alpha * beta, per [18]).
  */
object Butterflies {
  import Bipartite._

  /** Per-edge butterfly support: DataFrame(u, v, sup: long). An edge (u1, v1)
    * is in one butterfly per (u2, v2) with u2 != u1, v2 != v1 and the three
    * edges (u1,v2), (u2,v1), (u2,v2) present. Counted as a three-way self-join
    * over the edge list: wedge (u1,v1)-(u2,v1), extend to (u2,v2), close with
    * a semi-join on (u1,v2).
    */
  def support(edges0: DataFrame): DataFrame = {
    val e = cp(normalize(edges0).select(U, V))
    val wedges = e.as("e1").join(e.as("e2"),
        col("e1." + V) === col("e2." + V) && col("e1." + U) =!= col("e2." + U))
      .select(col("e1." + U).as("u1"), col("e1." + V).as("v1"), col("e2." + U).as("u2"))
    val paths = wedges.join(e.as("e3"),
        col("e3." + U) === col("u2") && col("e3." + V) =!= col("v1"))
      .select(col("u1"), col("v1"), col("u2"), col("e3." + V).as("v2"))
    val closed = paths.join(e.as("e4"),
        col("e4." + U) === col("u1") && col("e4." + V) === col("v2"), "left_semi")
    closed.groupBy(col("u1").as(U), col("v1").as(V)).agg(count(lit(1)).as("sup"))
  }

  /** k-bitruss: maximal subgraph where every edge lies in >= k butterflies,
    * by iterated support recomputation and filtering. Each round keeps a
    * subset of the edges and the loop stops when it keeps them all, so it
    * runs at most |E| + 1 rounds.
    */
  def bitruss(edges0: DataFrame, k: Long): DataFrame = {
    var edges = cp(normalize(edges0))
    var n = edges.count()
    var converged = n == 0
    while (!converged) {
      val sup = support(edges)
      val keep = cp(edges.join(sup.filter(col("sup") >= k).select(U, V), Seq(U, V), "left_semi"))
      val m = keep.count()
      converged = m == n
      edges = keep
      n = m
    }
    edges
  }
}
