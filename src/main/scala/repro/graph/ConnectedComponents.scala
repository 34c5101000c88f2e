package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Connected components by min-gid label propagation over the gid-encoded
  * adjacency, and BFS component extraction.
  */
object ConnectedComponents {
  import Bipartite._

  /** Component labels: DataFrame(gid: long, comp: long) where comp is the
    * minimum gid reachable from the vertex.
    */
  def labels(edges: DataFrame, maxIter: Int = 100000): DataFrame = {
    val adj = cp(sym(normalize(edges)).select(col("src"), col("dst")))
    val verts = adj.select(col("src").as("gid")).distinct()
    var lab = cp(verts.select(col("gid"), col("gid").as("comp")))
    // Labels are pointwise monotone non-increasing (min propagation), so an
    // unchanged sum is an exact fixpoint test.
    def sumOf(df: DataFrame): Long = {
      val r = df.agg(sum(col("comp"))).head
      if (r.isNullAt(0)) 0L else r.getLong(0)
    }
    var prevSum = sumOf(lab)
    var changed = !lab.isEmpty
    var it = 0
    while (changed) {
      it += 1
      require(it <= maxIter, s"ConnectedComponents did not converge within $maxIter iterations")
      val nbrMin = adj.join(lab, adj("dst") === lab("gid"))
        .groupBy("src").agg(min(col("comp")).as("nbrComp"))
        .select(col("src").as("gid"), col("nbrComp"))
      val nxt = cp(lab.join(nbrMin, Seq("gid"), "left")
        .select(col("gid"), least(col("comp"), coalesce(col("nbrComp"), col("comp"))).as("comp")))
      val s = sumOf(nxt)
      changed = s != prevSum
      prevSum = s
      lab = nxt
    }
    lab
  }

  /** Edges of the connected component containing qGid (empty if absent). */
  def componentEdges(edges: DataFrame, qGid: Long): DataFrame =
    Bfs.subgraphFrom(sym(normalize(edges)), qGid)
}
