package repro.graph

import java.util.Arrays
import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

/** Frontier-expansion breadth-first traversal — the dataflow rendition of the
  * paper's Algorithm 2 query loop. Index-based queries pass the filtered
  * index slice, so only community edges are returned. The edges stay in
  * Spark and the vertex ids and answer live on the driver. The first round's
  * job reads the adjacency it is given once and keeps each partition as
  * adjacency lists keyed by src, for this traversal only; every round is one
  * job that broadcasts the frontier and collects the frontier's rows from
  * those lists, with no SQL plan, shuffle or checkpoint. So a round reads
  * only the frontier's rows, as the paper's "optimal retrieval" does, after
  * one scan of the adjacency per traversal. The answer is built from the
  * rows read, so it is read once.
  */
object Bfs {
  import Bipartite._

  /** Canonical edges (u, v, w) of the subgraph reachable from startGid over
    * `adj` (src: long, dst: long, w: double), in ecc(startGid) + 1 rounds of
    * one Spark job each, as a local DataFrame; empty, after one round,
    * unless some row leads into startGid. `adj` must be symmetric on the
    * vertices reached: every row src -> dst has its reverse with the same w,
    * as `sym(...)` and the I_delta and I_bs slices do. The answer is the
    * rows read from upper frontier vertices; every visited vertex is in
    * exactly one frontier, so each edge is read once that way. Raises
    * IllegalArgumentException on a null src, dst or w, and when the answer
    * exceeds the [[Bipartite.maxDriverEdges]] limit.
    */
  def subgraphFrom(adj: DataFrame, startGid: Long): DataFrame =
    subgraphFrom(adj, startGid, maxDriverEdges(Runtime.getRuntime.maxMemory))

  private[graph] def subgraphFrom(adj: DataFrame, startGid: Long, maxEdges: Int): DataFrame = {
    val spark = adj.sparkSession
    val lists = adj.select(col("src"), col("dst"), col(W)).queryExecution.toRdd
      .mapPartitions(rows => Iterator(Lists(rows, startGid)))
      .persist(StorageLevel.MEMORY_ONLY)
    try {
      val visited = mutable.LongMap(startGid -> ())
      val answer = mutable.ArrayBuffer.empty[Row]
      var frontier = Array(startGid)
      while (frontier.nonEmpty) {
        val f = spark.sparkContext.broadcast(frontier)
        val parts = try lists.map(l => (l.intoStart, l.rowsOf(f.value))).collect() finally f.destroy()
        if (!parts.exists(_._1)) return emptyEdges(spark)
        val next = mutable.LongMap.empty[Unit]
        for ((_, (src, dst, w)) <- parts; i <- src.indices) {
          if (isUGid(src(i))) answer += Row(src(i) >> 1, dst(i) >> 1, w(i))
          if (!visited.contains(dst(i))) next(dst(i)) = ()
        }
        if (answer.length > maxEdges)
          throw new IllegalArgumentException(s"BFS from $startGid reaches ${answer.length} or more " +
            s"edges; the driver limit is $maxEdges edges")
        visited ++= next
        frontier = next.keys.toArray
      }
      localEdges(spark, answer.toSeq)
    } finally lists.unpersist(blocking = false)
  }

  /** One partition's (src, dst, w) rows as adjacency lists: the rows of
    * `keys(i)` (sorted, distinct) are `dst` and `w` at [start(i), start(i + 1)).
    * `intoStart` is whether some row's dst is the traversal's start.
    */
  private final class Lists(keys: Array[Long], start: Array[Int], dst: Array[Long], w: Array[Double],
                            val intoStart: Boolean) {

    /** The rows (src, dst, w) whose src is one of `gids`. */
    def rowsOf(gids: Array[Long]): (Array[Long], Array[Long], Array[Double]) = {
      val (s, d, x) = (new mutable.ArrayBuilder.ofLong, new mutable.ArrayBuilder.ofLong, new mutable.ArrayBuilder.ofDouble)
      for (g <- gids) {
        val i = Arrays.binarySearch(keys, g)
        if (i >= 0) for (j <- start(i) until start(i + 1)) { s += g; d += dst(j); x += w(j) }
      }
      (s.result(), d.result(), x.result())
    }
  }

  private object Lists {
    def apply(rows: Iterator[InternalRow], startGid: Long): Lists = {
      val (s, d, x) = (new mutable.ArrayBuilder.ofLong, new mutable.ArrayBuilder.ofLong, new mutable.ArrayBuilder.ofDouble)
      rows.foreach { r =>
        requireNonNull(r, "src", "dst", W)
        s += r.getLong(0); d += r.getLong(1); x += r.getDouble(2)
      }
      val (src, dst, w) = (s.result(), d.result(), x.result())
      val sorted = src.clone()
      Arrays.sort(sorted)
      var n = 0
      for (i <- sorted.indices if i == 0 || sorted(i) != sorted(i - 1)) { sorted(n) = sorted(i); n += 1 }
      val keys = Arrays.copyOf(sorted, n)
      // Counting sort of the rows by their key's index.
      val slot = src.map(Arrays.binarySearch(keys, _))
      val start = new Array[Int](n + 1)
      slot.foreach(k => start(k + 1) += 1)
      for (k <- 0 until n) start(k + 1) += start(k)
      val fill = Arrays.copyOf(start, n)
      val (dstByKey, wByKey) = (new Array[Long](src.length), new Array[Double](src.length))
      for (j <- src.indices) {
        val p = fill(slot(j))
        fill(slot(j)) += 1
        dstByKey(p) = dst(j)
        wByKey(p) = w(j)
      }
      new Lists(keys, start, dstByKey, wByKey, dst.contains(startGid))
    }
  }
}
