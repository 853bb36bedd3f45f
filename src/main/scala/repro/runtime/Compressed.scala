package repro.runtime

/** CLA-lite: column-wise compressed matrix (paper §5.2 "Compressed Linear
  * Algebra", following Elgohary et al. [28]).
  *
  * Each column is dense-dictionary-coded (DDC): a dictionary of distinct
  * values plus one small code per row. The multi-aggregate skeleton
  * ([[SpoofMultiAgg]]) exploits this for full sums over a compressed
  * input whose side inputs are all scalars, such as sum(X^2) or
  * sum(X * 2), by executing the generated `genexec` only once per
  * distinct value of each column and weighting by its count — the paper's
  * "remarkably close to hand-coded CLA" fast path. Basic full and column
  * sums read the dictionaries too ([[colSums]]). Every other consumer
  * decompresses: the other skeletons through `toDense`/`get`, basic
  * operators once in [[repro.core.Basic.execute]].
  *
  * Heterogeneous encodings and column co-coding of full CLA are out of
  * scope; DDC per column preserves the behaviour the paper measures
  * (compute over the dictionary instead of all cells).
  */
final class ColGroup(
    val col: Int,
    val dict: Array[Double],
    val codes: Array[Int],
) extends Serializable {
  /** Occurrences of each dictionary entry (for count-weighted aggregation). */
  lazy val counts: Array[Int] = {
    val c = new Array[Int](dict.length)
    var i = 0
    while (i < codes.length) { c(codes(i)) += 1; i += 1 }
    c
  }
}

final class CompressedBlock(
    val rows: Int,
    val cols: Int,
    val groups: Array[ColGroup],
) extends MatrixBlock {
  require(groups.length == cols, "one DDC group per column")

  def get(i: Int, j: Int): Double = {
    val g = groups(j)
    g.dict(g.codes(i))
  }

  lazy val nnz: Long =
    groups.map(g => g.counts.zip(g.dict).collect { case (c, v) if v != 0.0 => c.toLong }.sum).sum

  def isSparseFormat: Boolean = false

  def toDense: DenseBlock = {
    val out = new Array[Double](rows * cols)
    var j = 0
    while (j < cols) {
      val g = groups(j)
      var i = 0
      while (i < rows) { out(i * cols + j) = g.dict(g.codes(i)); i += 1 }
      j += 1
    }
    new DenseBlock(rows, cols, out)
  }

  def toSparse: SparseBlock = toDense.toSparse

  /** Column sums from the dictionaries: Σ value × count per column. */
  def colSums: DenseBlock = new DenseBlock(1, cols, groups.map { g =>
    var s = 0.0
    var d = 0
    while (d < g.dict.length) { s += g.dict(d) * g.counts(d); d += 1 }
    s
  })

  /** Compression ratio vs dense representation (values only). */
  def compressionRatio: Double = {
    val dense = rows.toLong * cols * 8.0
    val comp = groups.map(g => g.dict.length * 8.0 + g.codes.length * 4.0).sum
    dense / comp
  }
}

object CompressedBlock {

  /** Compress a block column-by-column with DDC. */
  def compress(m: MatrixBlock): CompressedBlock = {
    val groups = new Array[ColGroup](m.cols)
    var j = 0
    while (j < m.cols) {
      val idx = new java.util.HashMap[java.lang.Double, Integer]()
      val dictB = new scala.collection.mutable.ArrayBuilder.ofDouble
      val codes = new Array[Int](m.rows)
      var i = 0
      while (i < m.rows) {
        val v = m.get(i, j)
        var code = idx.get(v)
        if (code == null) {
          code = idx.size()
          idx.put(v, code)
          dictB += v
        }
        codes(i) = code
        i += 1
      }
      groups(j) = new ColGroup(j, dictB.result(), codes)
      j += 1
    }
    new CompressedBlock(m.rows, m.cols, groups)
  }
}
