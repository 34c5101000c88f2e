package repro.exp

import repro.{SparkSpec, TestGraphs}
import repro.graph.{Bipartite, Offsets, Peel}

/** Smoke tests of the experiment runners on miniature dataset specs — the
  * full-size runs live in bench/ (one suite per paper table).
  */
class TablesSpec extends SparkSpec {

  private val mini = Seq(
    DatasetSpec("MINI-A", 40, 40, 300, 0.8, 0.8, "uniform", 900),
    DatasetSpec("MINI-B", 25, 60, 280, 0.9, 0.7, "ratings", 901))

  test("generate honors the weight model and determinism") {
    val a1 = Datasets.generate(spark, mini.head)
    val a2 = Datasets.generate(spark, mini.head)
    assert(repro.TestGraphs.edgeSet(a1) == repro.TestGraphs.edgeSet(a2))
    assert(a1.select("w").distinct().count() <= Datasets.WeightLevels)
  }

  test("tableI computes consistent dataset summaries") {
    // paper dataset names are required by printTableI; use a real (small) spec
    val spec = Datasets.byName("BS").copy(nU = 60, nL = 100, targetEdges = 400)
    val rows = Tables.tableI(spark, Seq(spec))
    assert(rows.size == 1)
    val r = rows.head
    val edges = Datasets.generate(spark, spec)
    assert(r.nE == edges.count())
    assert(r.delta == Offsets.degeneracy(edges))
    assert(r.rDD == Peel.core(edges, r.delta, r.delta).count())
    assert(r.alphaMax == Bipartite.alphaMax(edges))
    assert(Tables.printTableI(rows).contains("BS"))
  }

  test("pickQueries returns distinct core vertices") {
    val edges = Datasets.generate(spark, mini.head)
    val core = Peel.core(edges, 2, 2)
    val qs = Tables.pickQueries(core, 3)
    assert(qs.nonEmpty && qs.size <= 3 && qs.distinct == qs)
    qs.foreach(q => assert(TestGraphs.containsGid(core, q)))
  }

  test("queryTimeTable produces positive timings and plausible ordering fields") {
    val spec = Datasets.byName("BS").copy(nU = 60, nL = 100, targetEdges = 400)
    val rows = Tables.queryTimeTable(spark, Seq(spec), nQueries = 1)
    assert(rows.size == 1)
    val r = rows.head
    assert(r.alpha >= 1 && r.qoMs > 0 && r.qvMs > 0 && r.qoptMs > 0)
    assert(Tables.printQueryTimeTable(rows).nonEmpty)
  }

  test("scsRowFor runs all three SCS algorithms") {
    val edges = Datasets.generate(spark, mini.head)
    val r = Tables.scsRowFor("MINI-A", edges, 2, 2, nQueries = 1)
    assert(r.nQueries == 1)
    assert(r.baselineMs > 0 && r.peelMs > 0 && r.expandMs > 0)
    assert(Tables.printScsTable(Seq(r)).contains("MINI-A"))
  }

  test("defaultParam is 0.7*delta floored at 1") {
    assert(Tables.defaultParam(0) == 1)
    assert(Tables.defaultParam(10) == 7)
    assert(Tables.defaultParam(3) == 2)
  }
}
