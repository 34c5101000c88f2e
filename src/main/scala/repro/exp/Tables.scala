package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.{Bipartite, Offsets, Peel, Weights}
import repro.core._

/** Experiment runners shared by the spark-submit jobs (`jobs/`) and the
  * benchmark suites (`bench/`). Each returns printable rows; the bench suites
  * record paper-vs-measured in EXPERIMENTS.md.
  */
object Tables {
  import Bipartite._

  final case class Timed[T](value: T, millis: Double)

  def time[T](f: => T): Timed[T] = {
    val t0 = System.nanoTime()
    val v = f
    Timed(v, (System.nanoTime() - t0) / 1e6)
  }

  /** Force an edge DataFrame and return its size (so timings include the
    * whole dataflow, not just plan construction).
    */
  def force(df: DataFrame): Long = df.count()

  /** Deterministic query picks: evenly spaced vertex gids of the
    * (alpha,beta)-core, so every query has a nonempty community.
    */
  def pickQueries(core: DataFrame, n: Int): Seq[Long] = {
    val gids = vertexGids(core).orderBy("gid").collect().map(_.getLong(0))
    if (gids.isEmpty) Nil
    else (0 until n).map(i => gids(((i.toLong * gids.length) / n).toInt.min(gids.length - 1))).distinct
  }

  /** 0.7 * delta, floored at 1 — the paper's default query parameter. */
  def defaultParam(delta: Int): Int = math.max(1, math.round(0.7 * delta).toInt)

  // -------------------------------------------------------------------
  // Table I — dataset summary
  // -------------------------------------------------------------------
  final case class DatasetSummary(name: String, nE: Long, nU: Long, nL: Long,
                                  delta: Int, alphaMax: Int, betaMax: Int, rDD: Long)

  def tableI(spark: SparkSession, specs: Seq[DatasetSpec] = Datasets.all): Seq[DatasetSummary] =
    specs.map { spec =>
      val edges = Datasets.generate(spark, spec)
      val st = stats(edges)
      val delta = Offsets.degeneracy(edges)
      val rdd = Peel.core(edges, delta, delta).count()
      DatasetSummary(spec.name, st.nE, st.nU, st.nL, delta,
        alphaMax(edges), betaMax(edges), rdd)
    }

  def printTableI(rows: Seq[DatasetSummary]): String = {
    val sb = new StringBuilder
    sb ++= f"${"Dataset"}%-8s ${"|E|"}%9s ${"|U|"}%9s ${"|L|"}%9s ${"delta"}%6s ${"aMax"}%7s ${"bMax"}%7s ${"|Rdd|"}%8s  (paper: |E| delta aMax bMax |Rdd|)\n"
    rows.foreach { r =>
      val p = Datasets.paperTableI(r.name)
      sb ++= f"${r.name}%-8s ${r.nE}%9d ${r.nU}%9d ${r.nL}%9d ${r.delta}%6d ${r.alphaMax}%7d ${r.betaMax}%7d ${r.rDD}%8d  (${p.nE} ${p.delta} ${p.alphaMax} ${p.betaMax} ${p.rDD})\n"
    }
    sb.result()
  }

  // -------------------------------------------------------------------
  // Fig 8 (as table) — (alpha,beta)-community retrieval: Q_o vs Q_v vs Q_opt
  // -------------------------------------------------------------------
  final case class QueryTimeRow(name: String, alpha: Int, beta: Int, nQueries: Int,
                                qoMs: Double, qvMs: Double, qoptMs: Double)

  def queryTimeTable(spark: SparkSession, specs: Seq[DatasetSpec],
                     nQueries: Int = 3): Seq[QueryTimeRow] =
    specs.map { spec =>
      val edges = Datasets.generate(spark, spec)
      val delta = Offsets.degeneracy(edges)
      val p = defaultParam(delta)
      val iDelta = DeltaIndex.build(edges)
      val iV = BicoreIndex.fromDelta(iDelta)
      val core = Peel.core(edges, p, p)
      val qs = pickQueries(core, nQueries)
      def avg(run: Long => DataFrame): Double =
        if (qs.isEmpty) 0.0
        else qs.map(q => time(force(run(q))).millis).sum / qs.size
      val qo = avg(q => CommunitySearch.online(edges, q, p, p))
      val qv = avg(q => CommunitySearch.viaBicore(edges, iV, q, p, p))
      val qopt = avg(q => CommunitySearch.viaDelta(iDelta, q, p, p))
      QueryTimeRow(spec.name, p, p, qs.size, qo, qv, qopt)
    }

  def printQueryTimeTable(rows: Seq[QueryTimeRow]): String = {
    val sb = new StringBuilder
    sb ++= f"${"Dataset"}%-8s ${"a=b"}%5s ${"#q"}%3s ${"Qo(ms)"}%10s ${"Qv(ms)"}%10s ${"Qopt(ms)"}%10s\n"
    rows.foreach { r =>
      sb ++= f"${r.name}%-8s ${r.alpha}%5d ${r.nQueries}%3d ${r.qoMs}%10.1f ${r.qvMs}%10.1f ${r.qoptMs}%10.1f\n"
    }
    sb.result()
  }

  // -------------------------------------------------------------------
  // Fig 10/11 (as table) — index construction time and size
  // -------------------------------------------------------------------
  final case class IndexRow(name: String,
                            ivMs: Double, ivEntries: Long, ivFull: Long,
                            idMs: Double, idEntries: Long,
                            ibsAlphaFull: Long, ibsBetaFull: Long,
                            ibsAlphaMs: Double, ibsAlphaEntries: Long)

  /** Builds I_v and I_delta fully; I_bs^alpha is materialized only up to
    * `basicCap` taus (with per-tau cost constant, total cost scales linearly
    * in alpha_max — the paper likewise reports expected sizes when
    * construction exceeds its time limit). Full I_bs sizes are exact-analytic.
    */
  def indexTable(spark: SparkSession, specs: Seq[DatasetSpec],
                 basicCap: Int = 4): Seq[IndexRow] =
    specs.map { spec =>
      val edges = Datasets.generate(spark, spec)
      val tIv = time(BicoreIndex.build(edges))
      val tId = time(DeltaIndex.build(edges))
      val tBs = time(BasicIndexes.build(edges, isAlpha = true, cap0 = basicCap))
      IndexRow(spec.name,
        tIv.millis, tIv.value.entryCount, IndexSizes.bicoreFullEntries(edges),
        tId.millis, tId.value.entryCount,
        IndexSizes.basicAlphaFullEntries(edges), IndexSizes.basicBetaFullEntries(edges),
        tBs.millis, tBs.value.entryCount)
    }

  def printIndexTable(rows: Seq[IndexRow]): String = {
    val sb = new StringBuilder
    sb ++= f"${"Dataset"}%-8s ${"Iv ms"}%9s ${"Iv ent"}%9s ${"Iv full"}%9s ${"Id ms"}%9s ${"Id ent"}%9s ${"IbsA full"}%10s ${"IbsB full"}%10s ${"IbsA(cap) ms"}%13s\n"
    rows.foreach { r =>
      sb ++= f"${r.name}%-8s ${r.ivMs}%9.0f ${r.ivEntries}%9d ${r.ivFull}%9d ${r.idMs}%9.0f ${r.idEntries}%9d ${r.ibsAlphaFull}%10d ${r.ibsBetaFull}%10d ${r.ibsAlphaMs}%13.0f\n"
    }
    sb.result()
  }

  // -------------------------------------------------------------------
  // Fig 12 (as table) — SCS-Baseline vs SCS-Peel vs SCS-Expand
  // -------------------------------------------------------------------
  final case class ScsRow(name: String, alpha: Int, beta: Int, nQueries: Int,
                          baselineMs: Double, peelMs: Double, expandMs: Double)

  def scsTable(spark: SparkSession, specs: Seq[DatasetSpec],
               nQueries: Int = 2): Seq[ScsRow] =
    specs.map { spec =>
      val edges = Datasets.generate(spark, spec)
      val delta = Offsets.degeneracy(edges)
      val p = defaultParam(delta)
      scsRowFor(spec.name, edges, p, p, nQueries)
    }

  /** One SCS timing row over a prepared edge set. Community retrieval uses
    * Q_opt (as in the paper's §V-D setup); its cost is included in the peel
    * and expand timings, mirroring the paper's end-to-end query times.
    */
  def scsRowFor(name: String, edges: DataFrame, alpha: Int, beta: Int,
                nQueries: Int, prebuilt: Option[DeltaIndex] = None): ScsRow = {
    val iDelta = prebuilt.getOrElse(DeltaIndex.build(edges))
    val core = Peel.core(edges, alpha, beta)
    val qs = pickQueries(core, nQueries)
    def avg(run: Long => Option[DataFrame]): Double =
      if (qs.isEmpty) 0.0
      else qs.map(q => time(run(q).foreach(force)).millis).sum / qs.size
    val base = avg(q => Scs.baseline(edges, q, alpha, beta))
    val peel = avg { q =>
      val c = CommunitySearch.viaDelta(iDelta, q, alpha, beta)
      Scs.peel(c, q, alpha, beta)
    }
    val expand = avg { q =>
      val c = CommunitySearch.viaDelta(iDelta, q, alpha, beta)
      Scs.expand(c, q, alpha, beta)
    }
    ScsRow(name, alpha, beta, qs.size, base, peel, expand)
  }

  def printScsTable(rows: Seq[ScsRow]): String = {
    val sb = new StringBuilder
    sb ++= f"${"Dataset"}%-10s ${"a"}%4s ${"b"}%4s ${"#q"}%3s ${"Baseline(ms)"}%13s ${"Peel(ms)"}%10s ${"Expand(ms)"}%11s\n"
    rows.foreach { r =>
      sb ++= f"${r.name}%-10s ${r.alpha}%4d ${r.beta}%4d ${r.nQueries}%3d ${r.baselineMs}%13.1f ${r.peelMs}%10.1f ${r.expandMs}%11.1f\n"
    }
    sb.result()
  }

  // -------------------------------------------------------------------
  // Table III — SCS running time under weight distributions AE/RW/UF/SK
  // -------------------------------------------------------------------
  final case class WeightDistRow(dist: String, baselineMs: Double, peelMs: Double,
                                 expandMs: Double)

  def tableIII(spark: SparkSession, nQueries: Int = 2): Seq[WeightDistRow] = {
    val spec = Datasets.byName("DT")
    val raw = repro.SynthData.bipartite(spark, spec.nU, spec.nL, spec.targetEdges,
      spec.zU, spec.zL, spec.seed)
    val delta = Offsets.degeneracy(raw)
    val p = defaultParam(delta)
    // I_delta is structural: build once, re-attach each distribution's weights.
    val structural = DeltaIndex.build(raw)
    val dists: Seq[(String, DataFrame)] = Seq(
      "AE" -> Weights.allEqual(raw),
      "RW" -> Weights.rwr(raw, Datasets.WeightLevels),
      "UF" -> Weights.uniform(raw, Datasets.WeightLevels, spec.seed + 1),
      "SK" -> Weights.skewNormal(raw, Datasets.WeightLevels, spec.seed + 2),
    )
    def row(dist: String, edges0: DataFrame, n: Int): ScsRow = {
      val edges = cp(edges0)
      scsRowFor(dist, edges, p, p, n, Some(DeltaIndex.withWeights(structural, edges)))
    }
    // One untimed query first, so that no row carries the JVM's warm-up.
    row("warm-up", dists.last._2, 1)
    dists.map { case (dist, edges0) =>
      val r = row(dist, edges0, nQueries)
      WeightDistRow(dist, r.baselineMs, r.peelMs, r.expandMs)
    }
  }

  def printTableIII(rows: Seq[WeightDistRow]): String = {
    val paper = Map( // seconds, from the paper's Table III
      "AE" -> ("0.03", "0.03", "0.03"),
      "RW" -> ("3.12", "0.34", "0.31"),
      "UF" -> ("4.42", "0.48", "0.41"),
      "SK" -> ("4.31", "0.45", "0.36"))
    val sb = new StringBuilder
    sb ++= f"${"Dist"}%-5s ${"Baseline(ms)"}%13s ${"Peel(ms)"}%10s ${"Expand(ms)"}%11s   (paper s: base/peel/expand)\n"
    rows.foreach { r =>
      val p = paper(r.dist)
      sb ++= f"${r.dist}%-5s ${r.baselineMs}%13.1f ${r.peelMs}%10.1f ${r.expandMs}%11.1f   (${p._1}/${p._2}/${p._3})\n"
    }
    sb.result()
  }

  // -------------------------------------------------------------------
  // Table II — query-result statistics across community models
  // -------------------------------------------------------------------
  final case class TableIIConfig(alpha: Int, beta: Int, qGid: Long)

  /** The ML-analog "comedy" subgraph: the ratings graph restricted to the
    * first third of the movie id space (the paper restricts to one genre).
    */
  def comedySubgraph(spark: SparkSession): DataFrame = {
    val spec = Datasets.byName("ML")
    val edges = Datasets.generate(spark, spec)
    cp(edges.filter(col(V) <= spec.nL / 3))
  }

  /** Scaled Table II setup: q is the highest-degree upper vertex of the
    * (t,t)-core with t = defaultParam(delta) — the paper picks a fixed user
    * id with alpha = beta = 45 on the 25M-edge MovieLens.
    */
  def tableIIConfig(edges: DataFrame): TableIIConfig = {
    val delta = Offsets.degeneracy(edges)
    val t = defaultParam(delta)
    val core = Peel.core(edges, t, t)
    val q = degreesU(core).orderBy(desc("deg"), asc(U)).head.getLong(0)
    TableIIConfig(t, t, gidOfU(q))
  }

  def tableII(spark: SparkSession): Seq[Effectiveness.ModelStats] = {
    val edges = comedySubgraph(spark)
    val cfg = tableIIConfig(edges)
    val iDelta = DeltaIndex.build(edges)
    val community = CommunitySearch.viaDelta(iDelta, cfg.qGid, cfg.alpha, cfg.beta)
    val sc = Scs.peel(community, cfg.qGid, cfg.alpha, cfg.beta)
      .getOrElse(emptyEdges(spark))
    val core = community
    val bitruss = Effectiveness.bitrussCommunity(edges, cfg.qGid,
      cfg.alpha.toLong * cfg.beta)
    val biclique = Effectiveness.bicliqueCommunity(edges, cfg.qGid, cfg.alpha)
    val c4 = Effectiveness.c4star(edges, cfg.qGid)
    Seq(
      Effectiveness.stats("SC", sc, sc),
      Effectiveness.stats("(a,b)-core", core, sc),
      Effectiveness.stats("bitruss", bitruss, sc),
      Effectiveness.stats("biclique", biclique, sc),
      Effectiveness.stats("C4*", c4, sc))
  }

  def printTableII(rows: Seq[Effectiveness.ModelStats]): String = {
    val paper = Map( // |U|, |M|, Ravg, Rmin, Mavg, Sim% from the paper's Table II
      "SC" -> ("2127", "670", "4.81", "4.50", "63.47", "100"),
      "(a,b)-core" -> ("34466", "2491", "3.39", "0.5", "110.03", "7.57"),
      "bitruss" -> ("158183", "2985", "3.48", "0.5", "35.87", "1.74"),
      "biclique" -> ("65", "45", "3.45", "0.5", "45", "2.39"),
      "C4*" -> ("114915", "387", "4.16", "0.5", "2.39", "1.82"))
    val sb = new StringBuilder
    sb ++= f"${"Model"}%-12s ${"|U|"}%7s ${"|M|"}%6s ${"Ravg"}%6s ${"Rmin"}%6s ${"Mavg"}%7s ${"Sim%%"}%6s   (paper)\n"
    rows.foreach { r =>
      val p = paper(r.model)
      sb ++= f"${r.model}%-12s ${r.nU}%7d ${r.nL}%6d ${r.rAvg}%6.2f ${r.rMin}%6.2f ${r.mAvg}%7.2f ${r.simPct}%6.2f   (${p._1}, ${p._2}, ${p._3}, ${p._4}, ${p._5}, ${p._6})\n"
    }
    sb.result()
  }
}
