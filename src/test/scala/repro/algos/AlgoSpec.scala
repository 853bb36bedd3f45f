package repro.algos

import repro.{SparkSpec, TestLA}
import repro.compiler._
import repro.core._
import repro.dist.DistOps
import repro.runtime._

/** End-to-end algorithm correctness: all execution modes converge to the
  * same losses, and training reduces the objective. */
class AlgoSpec extends SparkSpec {

  private val n = 300
  private val x2 = AlgoData.denseFeatures(n, 10)
  private val y2 = AlgoData.labels2(x2)
  private val y01 = MatrixBlock.tabulate(n, 1)((i, _) => if (y2.get(i, 0) > 0) 1.0 else 0.0)
  private val yMulti = AlgoData.labelsOneHot(x2, 3)
  private val xSparse = AlgoData.sparseFeatures(n, 60, 0.2)

  private def runAll(run: ExecContext => AlgoRun, tol: Double = 1e-5): Seq[AlgoRun] = {
    val runs = TestLA.allModes.map(m => run(new ExecContext(m)))
    val ref = runs.head
    runs.tail.foreach { r =>
      assert(math.abs(r.loss - ref.loss) <= tol * math.max(1.0, math.abs(ref.loss)),
        s"${r.name}: loss ${r.loss} != Base ${ref.loss}")
    }
    runs
  }

  test("L2SVM: all modes agree; objective decreases") {
    val runs = runAll(ctx => L2SVM.run(ctx, LocalData(x2), LocalData(y2), maxIter = 5))
    assert(runs.head.iterations == 5)
    val oneIter = L2SVM.run(new ExecContext(BaseMode), LocalData(x2), LocalData(y2), maxIter = 1)
    assert(runs.head.loss < oneIter.loss, s"${runs.head.loss} !< ${oneIter.loss}")
  }

  test("L2SVM on sparse features") {
    val ys = AlgoData.labels2(xSparse)
    runAll(ctx => L2SVM.run(ctx, LocalData(xSparse), LocalData(ys), maxIter = 3))
  }

  test("MLogreg (3 classes): all modes agree; loss decreases") {
    val runs = runAll(ctx => MLogreg.run(ctx, LocalData(x2), LocalData(yMulti), maxIter = 3, innerIter = 4), tol = 1e-4)
    val one = MLogreg.run(new ExecContext(BaseMode), LocalData(x2), LocalData(yMulti), maxIter = 1, innerIter = 4)
    assert(runs.head.loss < one.loss)
  }

  test("MLogreg binary (2 classes, k-1 = 1)") {
    val yOH = MatrixBlock.tabulate(n, 2)((i, c) => if ((y2.get(i, 0) > 0) == (c == 0)) 1.0 else 0.0)
    runAll(ctx => MLogreg.run(ctx, LocalData(x2), LocalData(yOH), maxIter = 2, innerIter = 3), tol = 1e-4)
  }

  test("GLM binprobit: all modes agree; deviance decreases") {
    val runs = runAll(ctx => GLM.run(ctx, LocalData(x2), LocalData(y01), maxIter = 3, innerIter = 4), tol = 1e-4)
    val one = GLM.run(new ExecContext(BaseMode), LocalData(x2), LocalData(y01), maxIter = 1, innerIter = 4)
    assert(runs.head.loss <= one.loss + 1e-9)
  }

  test("KMeans: all modes agree; WCSS decreases") {
    val runs = runAll(ctx => KMeans.run(ctx, LocalData(x2), k = 4, maxIter = 4), tol = 1e-6)
    val one = KMeans.run(new ExecContext(BaseMode), LocalData(x2), k = 4, maxIter = 1)
    assert(runs.head.loss <= one.loss + 1e-9)
  }

  test("ALS-CG: all modes agree; factorization loss decreases") {
    val x = AlgoData.ratingsLike(80, 60, 0.1)
    val runs = runAll(ctx => ALSCG.run(ctx, LocalData(x), rank = 4, outerIter = 2, cgIter = 2), tol = 1e-4)
    val one = ALSCG.run(new ExecContext(BaseMode), LocalData(x), rank = 4, outerIter = 1, cgIter = 2)
    assert(runs.head.loss < one.loss)
  }

  test("AutoEncoder: all modes agree; reconstruction error decreases over batches") {
    val x = AlgoData.denseFeatures(256, 20, seed = 50)
    val runs = runAll(ctx => AutoEncoder.run(ctx, LocalData(x), h1 = 16, h2 = 2, batch = 64, eta = 1e-2), tol = 1e-4)
    assert(runs.head.iterations == 4)
  }

  test("distributed L2SVM equals local (Gen + Base)") {
    val cfg = CostConfig(localMemBudget = 8L << 10, distLatencyS = 0.0)
    val lRun = L2SVM.run(new ExecContext(BaseMode), LocalData(x2), LocalData(y2), maxIter = 3)
    withDist(DistOps.fromLocal(spark, x2, 64)) { dist =>
      for (mode <- Seq(BaseMode, FusedMode, GenMode(CostBased))) {
        val dCtx = new ExecContext(mode, cfg, Some(spark), 64)
        val dRun = L2SVM.run(dCtx, DistData(dist), LocalData(y2), maxIter = 3)
        assert(math.abs(dRun.loss - lRun.loss) <= 1e-5 * math.max(1.0, lRun.loss),
          s"mode=${mode.label}: ${dRun.loss} vs ${lRun.loss}")
      }
    }
  }

  test("distributed KMeans equals local (Gen)") {
    val cfg = CostConfig(localMemBudget = 8L << 10, distLatencyS = 0.0)
    val dCtx = new ExecContext(GenMode(CostBased), cfg, Some(spark), 64)
    val dRun = withDist(DistOps.fromLocal(spark, x2, 64))(dist => KMeans.run(dCtx, DistData(dist), k = 4, maxIter = 3))
    val lRun = KMeans.run(new ExecContext(BaseMode), LocalData(x2), k = 4, maxIter = 3)
    assert(math.abs(dRun.loss - lRun.loss) <= 1e-5 * math.max(1.0, lRun.loss))
  }

  test("distributed MLogreg equals local; the Y1 it distributes is released") {
    // X %*% B (300 x 2, 4.8 KB) and exp(X %*% B) stay distributed
    val cfg = CostConfig(localMemBudget = 4L << 10, distLatencyS = 0.0)
    val lRun = MLogreg.run(new ExecContext(BaseMode), LocalData(x2), LocalData(yMulti), maxIter = 2, innerIter = 2)
    for (mode <- Seq(BaseMode, FusedMode, GenMode(CostBased))) {
      val dCtx = new ExecContext(mode, cfg, Some(spark), 64)
      val dRun = withDist(DistOps.fromLocal(spark, x2, 64)) { dist =>
        MLogreg.run(dCtx, DistData(dist), LocalData(yMulti), maxIter = 2, innerIter = 2)
      }
      assert(math.abs(dRun.loss - lRun.loss) <= 1e-4 * math.max(1.0, lRun.loss),
        s"mode=${mode.label}: ${dRun.loss} vs ${lRun.loss}")
      assert(SparkSpec.noCachedData(spark), s"${mode.label} left distributed data cached")
    }
  }

  test("data generators are deterministic") {
    assert(MatrixBlock.maxAbsDiff(AlgoData.denseFeatures(50, 5), AlgoData.denseFeatures(50, 5)) == 0.0)
    assert(MatrixBlock.maxAbsDiff(AlgoData.labels2(x2), AlgoData.labels2(x2)) == 0.0)
    assert(MatrixBlock.maxAbsDiff(AlgoData.mnistLike(20), AlgoData.mnistLike(20)) == 0.0)
  }
  test("label generators produce valid labels") {
    assert((0 until n).forall(i => math.abs(y2.get(i, 0)) == 1.0))
    assert((0 until n).forall { i =>
      (0 until 3).map(yMulti.get(i, _)).sum == 1.0
    })
  }
}
