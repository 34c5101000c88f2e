package repro.graph

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Frontier-expansion breadth-first traversal — the dataflow rendition of the
  * paper's Algorithm 2 query loop. Index-based queries pass the filtered
  * index slice, so only community edges are returned; but each round and the
  * final semi-join scan the whole adjacency they are given, not only the
  * answer's edges, so the paper's "optimal retrieval" read cost does not
  * hold here. The edges stay in Spark and the vertex ids live on the driver:
  * each round is one broadcast semi-join of the adjacency against the
  * frontier, collecting `dst`, with no shuffle or checkpoint.
  */
object Bfs {
  import Bipartite._

  /** Canonical edges (u, v, w) of the subgraph reachable from startGid over
    * `adj` (src, dst, u, v, w), in ecc(startGid) + 1 rounds; empty when
    * startGid has no rows. `adj` must be symmetric: every row src -> dst has
    * its reverse with the same (u, v, w), as `sym(...)` and the I_delta and
    * I_bs slices do (a slice keeps both directions of every community edge).
    * Raises IllegalArgumentException when more vertices are reachable than
    * [[Bipartite.maxDriverEdges]] allows.
    */
  def subgraphFrom(adj: DataFrame, startGid: Long): DataFrame =
    subgraphFrom(adj, startGid, maxDriverEdges(Runtime.getRuntime.maxMemory))

  private[graph] def subgraphFrom(adj0: DataFrame, startGid: Long, maxVisited: Int): DataFrame = {
    val spark = adj0.sparkSession
    import spark.implicits._
    val adj = cp(adj0.select(col("src"), col("dst"), col(U), col(V), col(W)))
    def touching(gids: Iterable[Long]): DataFrame =
      adj.join(broadcast(gids.toSeq.toDF("gid")), col("src") === col("gid"), "left_semi")

    val visited = mutable.LongMap(startGid -> ())
    var frontier = Array(startGid)
    while (frontier.nonEmpty) {
      val next = mutable.LongMap.empty[Unit]
      for (r <- touching(frontier).select(col("dst")).collect()) {
        val gid = r.getLong(0)
        if (!visited.contains(gid)) next(gid) = ()
      }
      val reached = visited.size.toLong + next.size
      if (reached > maxVisited)
        throw new IllegalArgumentException(s"BFS from $startGid reaches $reached or more " +
          s"vertices; the driver limit is $maxVisited vertices")
      visited ++= next
      frontier = next.keys.toArray
    }
    // Every edge out of a visited vertex ends at a visited vertex, and by
    // symmetry appears twice; keep its upper -> lower row.
    cp(touching(visited.keys).filter(col("src") === gidU(col(U))).select(col(U), col(V), col(W)))
  }
}
