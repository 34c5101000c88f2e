package repro.graph

import org.apache.spark.sql.functions._
import org.apache.spark.JobCounter
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.local.LocalBipartite
import LocalBipartite.{gidL, gidU}

/** Connected-component label propagation and BFS subgraph extraction vs the
  * sequential oracle, with a DuckDB recursive-CTE reachability cross-check.
  */
class ComponentsSpec extends SparkSpec {
  import TestGraphs._

  private def labelsMap(edges: Vector[(Long, Long, Double)]): Map[Long, Long] =
    ConnectedComponents.labels(toDF(spark, edges))
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap

  test("labels equal min-gid components on fixtures") {
    for (edges <- Seq(fig2, k33Pendant, path, star, twoBlocks)) {
      assert(labelsMap(edges) == LocalBipartite(edges).components)
    }
  }

  test("labels on random graphs") {
    for (seed <- 1 to 3) {
      val g = random(6, 6, 0.25, seed) // sparse: several components
      assert(labelsMap(g) == LocalBipartite(g).components, s"seed=$seed")
    }
  }

  test("componentEdges extracts exactly q's component") {
    val cut = twoBlocks.filter(_._3 != 1.0)
    val df = toDF(spark, cut)
    val got = edgeSet(ConnectedComponents.componentEdges(df, gidU(1)))
    val exp = LocalBipartite(cut).componentOf(gidU(1)).edges.toSet
    assert(got == exp)
    assert(got.size == 4)
    // from a lower vertex of the other block
    val got2 = edgeSet(ConnectedComponents.componentEdges(df, gidL(3)))
    assert(got2 == LocalBipartite(cut).componentOf(gidL(3)).edges.toSet)
  }

  test("componentEdges of an absent vertex is empty") {
    assert(ConnectedComponents.componentEdges(toDF(spark, path), gidU(42)).isEmpty)
  }

  test("BFS component agrees with DuckDB recursive-CTE reachability") {
    val cut = twoBlocks.filter(_._3 != 1.0)
    val df = toDF(spark, cut)
    val got = ConnectedComponents.componentEdges(df, gidU(1))
    // DuckDB: transitive closure from gid(u1)=2 over the doubled adjacency,
    // then edges with a reachable endpoint.
    Oracle.assertEquivalent(
      got.select(col("u"), col("v"), col("w")),
      """
      WITH RECURSIVE adj AS (
        SELECT CAST(u AS BIGINT)*2 AS src, CAST(v AS BIGINT)*2+1 AS dst FROM edges
        UNION ALL
        SELECT CAST(v AS BIGINT)*2+1, CAST(u AS BIGINT)*2 FROM edges
      ), reach AS (
        SELECT CAST(2 AS BIGINT) AS gid
        UNION
        SELECT adj.dst FROM reach JOIN adj ON adj.src = reach.gid
      )
      SELECT CAST(u AS BIGINT) AS u, CAST(v AS BIGINT) AS v, CAST(w AS DOUBLE) AS w
      FROM edges
      WHERE CAST(u AS BIGINT)*2 IN (SELECT gid FROM reach)
      """,
      "edges" -> df)
  }

  test("Bfs over filtered adjacency only returns qualifying edges") {
    val df = toDF(spark, fig2)
    val adj = Bipartite.sym(df).filter(col("w") >= 5.0)
    val got = edgeSet(Bfs.subgraphFrom(adj, gidU(3)))
    val exp = LocalBipartite(fig2.filter(_._3 >= 5.0)).componentOf(gidU(3)).edges.toSet
    assert(got == exp)
    assert(got.forall(_._3 >= 5.0))
  }

  test("Bfs runs at most 3 Spark jobs per round") {
    // One job per round (the first also builds the adjacency lists); reading
    // the answer back runs none.
    val ecc = 12 // of u1 on pathOf(6)
    val adj = Bipartite.sym(toDF(spark, pathOf(6)))
    val (got, jobs) = JobCounter.jobsIn(spark.sparkContext)(edgeSet(Bfs.subgraphFrom(adj, gidU(1))))
    assert(got == pathOf(6).toSet)
    assert(jobs <= ecc + 1, s"$jobs jobs for ${ecc + 1} rounds")
  }

  test("Bfs over an adjacency whose sources are split across partitions, some empty") {
    // fig2 and, beside it, the two blocks of twoBlocks without their bridge.
    val edges = fig2 ++ twoBlocks.filter(_._3 != 1.0).map { case (u, v, w) => (u + 100, v + 100, w) }
    val adj = Bipartite.sym(toDF(spark, edges))
    val nVertices = adj.select("src").distinct().count().toInt
    val split = adj.repartition(3 * nVertices, col("dst"))
    val placed = split.select(col("src"), spark_partition_id()).collect().map(r => (r.getLong(0), r.getInt(1)))
    assert(placed.groupBy(_._1).exists(_._2.map(_._2).distinct.length > 1), "no src split across partitions")
    assert(placed.map(_._2).distinct.length < split.rdd.getNumPartitions, "no empty partition")
    for (q <- Seq(gidU(3), gidL(4), gidU(101), gidL(103))) {
      val exp = LocalBipartite(edges).componentOf(q).edges.toSet
      assert(edgeSet(Bfs.subgraphFrom(split, q)) == exp, s"q=$q")
    }
  }

  test("a null id or weight is rejected where the edges leave SQL") {
    import spark.implicits._
    val ok = Seq((Option(0L), Option(1L), Option(1.0)), (Option(0L), Option(2L), Option(1.0)))
    // The bad row, then what the BFS over (src, dst, w) and the fixpoint over (u, v) name.
    val cases: Seq[((Option[Long], Option[Long], Option[Double]), String, Option[String])] = Seq(
      ((None, Some(3L), Some(1.0)), "null (src|dst)", Some("null u")),
      ((Some(1L), None, Some(1.0)), "null (src|dst)", Some("null v")),
      ((Some(1L), Some(3L), None), "null w", None))
    for ((bad, inBfs, inFixpoint) <- cases) {
      val df = (ok :+ bad).toDF(Bipartite.U, Bipartite.V, Bipartite.W)
      val bfs = rejection(ConnectedComponents.componentEdges(df, gidU(0))).getMessage
      assert(inBfs.r.findFirstIn(bfs).isDefined, s"componentEdges $bad: $bfs")
      inFixpoint.foreach(m => assert(rejection(Peel.core(df, 1, 1)).getMessage.contains(m), s"Peel.core $bad"))
    }
  }

  test("Bfs rejects a traversal above the driver limit") {
    val sc = spark.sparkContext
    val adj = Bipartite.sym(toDF(spark, pathOf(6))) // 12 edges
    val persisted = sc.getPersistentRDDs.keySet
    val e = intercept[IllegalArgumentException](Bfs.subgraphFrom(adj, gidU(1), maxEdges = 11))
    assert(e.getMessage.contains("12 or more edges") && e.getMessage.contains("limit is 11 edges"))
    assert(sc.getPersistentRDDs.keySet == persisted, "adjacency lists left persisted after the throw")
    assert(edgeSet(Bfs.subgraphFrom(adj, gidU(1), maxEdges = 12)) == pathOf(6).toSet)
    assert(sc.getPersistentRDDs.keySet == persisted, "adjacency lists left persisted after the return")
  }
}
