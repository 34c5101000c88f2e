package repro.graph

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

/** Frontier-expansion breadth-first traversal — the dataflow rendition of the
  * paper's Algorithm 2 query loop. Index-based queries pass the filtered
  * index slice, so only community edges are returned; but each round scans
  * the whole adjacency it is given, not only the answer's edges, so the
  * paper's "optimal retrieval" read cost does not hold here. The edges stay
  * in Spark and the vertex ids and answer live on the driver: each round is
  * one broadcast semi-join of the adjacency against the frontier, collecting
  * the frontier's rows, with no shuffle or checkpoint. The answer is built
  * from those rows, so it is read once.
  */
object Bfs {
  import Bipartite._

  /** Canonical edges (u, v, w) of the subgraph reachable from startGid over
    * `adj` (src, dst, w), in ecc(startGid) + 1 rounds, as a local DataFrame;
    * empty when startGid has no rows. `adj` must be symmetric: every row
    * src -> dst has its reverse with the same w, as `sym(...)` and the
    * I_delta and I_bs slices do (a slice keeps both directions of every
    * community edge). The answer is the rows read from upper frontier
    * vertices; every visited vertex is in exactly one frontier, so each edge
    * is read once that way. Raises IllegalArgumentException when the answer
    * exceeds the [[Bipartite.maxDriverEdges]] limit.
    */
  def subgraphFrom(adj: DataFrame, startGid: Long): DataFrame =
    subgraphFrom(adj, startGid, maxDriverEdges(Runtime.getRuntime.maxMemory))

  private[graph] def subgraphFrom(adj0: DataFrame, startGid: Long, maxEdges: Int): DataFrame = {
    val spark = adj0.sparkSession
    import spark.implicits._
    val adj = cp(adj0.select(col("src"), col("dst"), col(W)))

    val visited = mutable.LongMap(startGid -> ())
    val answer = mutable.ArrayBuffer.empty[Row]
    var frontier = Array(startGid)
    while (frontier.nonEmpty) {
      val next = mutable.LongMap.empty[Unit]
      for (r <- adj.join(broadcast(frontier.toSeq.toDF("gid")), col("src") === col("gid"), "left_semi").collect()) {
        val (src, dst) = (r.getLong(0), r.getLong(1))
        if (isUGid(src)) answer += Row(src >> 1, dst >> 1, r.getDouble(2))
        if (!visited.contains(dst)) next(dst) = ()
      }
      if (answer.length > maxEdges)
        throw new IllegalArgumentException(s"BFS from $startGid reaches ${answer.length} or more " +
          s"edges; the driver limit is $maxEdges edges")
      visited ++= next
      frontier = next.keys.toArray
    }
    localEdges(spark, answer.toSeq)
  }
}
