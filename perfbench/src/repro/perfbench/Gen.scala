package repro.perfbench

import scala.collection.mutable

/** Deterministic workload inputs, generated on the driver.
  *
  * Every random draw is a pure hash of (seed, stream, index), so a seed gives
  * the same edges, weights and queries on any core count, partitioning or
  * shuffle order. The program under test only ever sees the resulting edges.
  */
object Gen {
  /** SplitMix64 finalizer: a bijective 64-bit mix. */
  def mix(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Uniform draw in [0, 1) for (seed, stream, index). */
  def unit(seed: Long, stream: Long, i: Long): Double =
    (mix(mix(mix(seed) ^ stream) ^ i) >>> 11).toDouble / (1L << 53).toDouble

  /** Power-law endpoint in [1, n]: inverse of the bounded continuous zipf CDF
    * F(k) = (k^(1-z) - 1) / (n^(1-z) - 1), for z != 1.
    */
  def plaw(r: Double, n: Long, z: Double): Long = {
    val e = 1.0 - z
    val k = math.pow(r * (math.pow(n.toDouble, e) - 1.0) + 1.0, 1.0 / e)
    math.max(1L, math.min(n, k.toLong))
  }

  final case class GraphSpec(nU: Long, nL: Long, attempts: Long, zU: Double, zL: Double,
                             levels: Int)

  /** Deduplicated edges (u, v, w), in first-draw order; w is one of
    * `levels` integer levels, hashed from (seed, u, v).
    */
  def edges(spec: GraphSpec, seed: Long): Vector[(Long, Long, Double)] = {
    val seen = mutable.HashSet.empty[(Long, Long)]
    val out = Vector.newBuilder[(Long, Long, Double)]
    var i = 0L
    while (i < spec.attempts) {
      val u = plaw(unit(seed, 1, i), spec.nU, spec.zU)
      val v = plaw(unit(seed, 2, i), spec.nL, spec.zL)
      if (seen.add((u, v))) {
        val w = 1 + math.floor(unit(seed, 3, mix(u) ^ v) * spec.levels)
        out += ((u, v, w))
      }
      i += 1
    }
    out.result()
  }
}
