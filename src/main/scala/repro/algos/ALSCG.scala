package repro.algos

import repro.core._
import repro.runtime._
import Vec._

/** Alternating least squares via conjugate gradient (SystemML `ALS-CG`,
  * Table 2: rank 20, weighted-L2, lambda=1e-3).
  *
  * The update rules and loss are the paper's Eq. (1) / Fig. 1(d) family:
  *   grad_U = ((X != 0) ⊙ (U %*% t(V))) %*% V - X %*% V + lambda U
  *   loss   = sum(((X != 0) ⊙ (U %*% t(V)) - X)^2)
  * Without the sparsity-exploiting Outer template (or the hand-coded
  * weighted operators) these require a dense n x m intermediate — the
  * reason Base / fuse-all / fuse-no-redundancy are "N/A" at scale in
  * Table 5.
  */
object ALSCG {

  def run(ctx0: ExecContext, xData: MatrixData, rank: Int = 20,
          lambda: Double = 1e-3, outerIter: Int = 4, cgIter: Int = 3,
          seed: Long = 37): AlgoRun = {
    implicit val ctx: ExecContext = ctx0
    val n = xData.rows.toInt
    val m = xData.cols.toInt
    val X = ctx.bind("X", xData)

    var u = MatrixBlock.rand(n, rank, 1.0, seed, min = 0.0, max = 0.1).toDense: MatrixBlock
    var v = MatrixBlock.rand(m, rank, 1.0, seed + 1, min = 0.0, max = 0.1).toDense: MatrixBlock

    var loss = 0.0
    var iter = 0
    while (iter < outerIter) {
      u = solveFactor(ctx, X, u, v, lambda, cgIter, updateU = true, iter)
      v = solveFactor(ctx, X, u, v, lambda, cgIter, updateU = false, iter)
      val uB = ctx.bindLocal(s"lu$iter", u)
      val vB = ctx.bindLocal(s"lv$iter", v)
      val lossExpr = (((X.neq0 * (uB %*% vB.t)) - X) ^ 2.0).sum +
        ((uB ^ 2.0).sum + (vB ^ 2.0).sum) * lambda
      loss = ctx.eval(Seq(lossExpr)).head.toLocal.get(0, 0)
      iter += 1
    }
    AlgoRun("ALS-CG", iter, loss)
  }

  /** CG steps on one factor with the weighted-squared-loss normal equations. */
  private def solveFactor(ctx0: ExecContext, X: MX, u: MatrixBlock, v: MatrixBlock,
                          lambda: Double, cgIter: Int, updateU: Boolean, iter: Int): MatrixBlock = {
    implicit val ctx: ExecContext = ctx0
    val tag = if (updateU) "U" else "V"
    var f = if (updateU) u else v
    val other = if (updateU) v else u

    val fB = ctx.bindLocal(s"f$tag$iter", f)
    val oB = ctx.bindLocal(s"o$tag$iter", other)
    val gradExpr =
      if (updateU) ((X.neq0 * (fB %*% oB.t)) %*% oB) - (X %*% oB) + fB * lambda
      else ((X.neq0 * (oB %*% fB.t)).t %*% oB) - (X.t %*% oB) + fB * lambda
    val g = ctx.eval(Seq(gradExpr)).head.toLocal

    var r = axpy(g, g, -2.0) // r = -g
    var p = r
    var d = MatrixBlock.zeros(f.rows, f.cols): MatrixBlock
    var rs = dot(r, r)
    var cg = 0
    while (cg < cgIter && rs > 1e-18) {
      val pB = ctx.bindLocal(s"p$tag${iter}_$cg", p)
      val hvExpr =
        if (updateU) ((X.neq0 * (pB %*% oB.t)) %*% oB) + pB * lambda
        else ((X.neq0 * (oB %*% pB.t)).t %*% oB) + pB * lambda
      val hv = ctx.eval(Seq(hvExpr)).head.toLocal
      val alpha = rs / math.max(dot(p, hv), 1e-18)
      d = axpy(d, p, alpha)
      r = axpy(r, hv, -alpha)
      val rsNew = dot(r, r)
      p = axpy(r, p, rsNew / math.max(rs, 1e-18))
      rs = rsNew
      cg += 1
    }
    axpy(f, d, 1.0)
  }
}
