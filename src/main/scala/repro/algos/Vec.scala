package repro.algos

import repro.runtime._

/** Driver-side vector arithmetic of the algorithms' outer loops (the
  * scalar script statements between DAG evaluations). */
private[algos] object Vec {

  /** Sum of the cell-wise products of `a` and `b`, in row-major order. */
  def dot(a: MatrixBlock, b: MatrixBlock): Double = {
    var s = 0.0
    var i = 0
    while (i < a.rows) { var j = 0; while (j < a.cols) { s += a.get(i, j) * b.get(i, j); j += 1 }; i += 1 }
    s
  }

  /** a + scale * b. */
  def axpy(a: MatrixBlock, b: MatrixBlock, scale: Double): DenseBlock =
    MatrixBlock.tabulate(a.rows, a.cols)((i, j) => a.get(i, j) + scale * b.get(i, j))
}
