package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.algos._
import repro.compiler.CostConfig
import repro.core._
import repro.dist.DistOps
import repro.runtime.MatrixBlock

/** One generated input, kept for the environment record. */
final case class Input(name: String, block: MatrixBlock) {
  /** Bytes of the in-memory representation: 8 per dense cell, or CSR
    * values + column indices + row pointers. Computed, not measured. */
  def computedBytes: Long =
    if (block.isSparseFormat) block.nnz * 12L + (block.rows + 1L) * 4L
    else block.numCells * 8L
}

/** One algorithm call of a pass; `name` is the span name (`L2SVM.run`). */
final case class Call(name: String, data: String, run: ExecContext => AlgoRun)

/** A workload: its inputs, the algorithm calls of one pass, how a pass
  * builds its fresh [[ExecContext]], and how many untimed rounds warm the
  * JIT before timing starts. */
final case class Workload(name: String, inputs: Seq[Input], calls: Seq[Call],
                          newContext: ExecMode => ExecContext, warmupRounds: Int)

/** The three benchmark workloads. Every input comes from [[AlgoData]] with
  * a seed derived from the benchmark seed; iteration counts are fixed. */
object Workloads {

  val Names: Seq[String] = Seq("dense-scan", "sparse-minibatch", "dist-scan")

  /** Seed of the k-th generator call of a run. */
  private def sub(seed: Long, k: Int): Long = seed * 1009L + k

  private def binary01(y2: MatrixBlock): MatrixBlock =
    MatrixBlock.tabulate(y2.rows, 1)((i, _) => if (y2.get(i, 0) > 0) 1.0 else 0.0)

  def build(name: String, seed: Long, toy: Boolean, spark: SparkSession): Workload = name match {
    case "dense-scan"       => denseScan(seed, toy)
    case "sparse-minibatch" => sparseMinibatch(seed, toy)
    case "dist-scan"        => distScan(seed, toy, spark)
    case other => throw new IllegalArgumentException(
      s"unknown workload '$other' (expected one of ${Names.mkString(", ")})")
  }

  private def local(m: ExecMode) = new ExecContext(m)

  /** L2SVM + GLM over one dense local X: a scan-bound mix of Row, Cell
    * and MAgg operators and mmchain. */
  private def denseScan(seed: Long, toy: Boolean): Workload = {
    val n = if (toy) 2_000 else 25_000
    val x = AlgoData.denseFeatures(n, 10, sub(seed, 1))
    val y2 = AlgoData.labels2(x, sub(seed, 2))
    val y01 = binary01(y2)
    Workload("dense-scan",
      Seq(Input("X", x), Input("y", y2), Input("y01", y01)),
      Seq(
        Call("L2SVM.run", "X", c => L2SVM.run(c, LocalData(x), LocalData(y2), maxIter = 5, maxInnerIter = 10)),
        Call("GLM.run", "X", c => GLM.run(c, LocalData(x), LocalData(y01), maxIter = 3, innerIter = 5)),
      ),
      local, warmupRounds = 4)
  }

  /** ALS-CG on sparse ratings, L2SVM on a sparse Mnist-like X, and an
    * AutoEncoder over dense minibatches: many small fused operators,
    * sparse-safe Outer, and sparse Row inputs. */
  private def sparseMinibatch(seed: Long, toy: Boolean): Workload = {
    val (alsN, mnistN, aeN) = if (toy) (200, 500, 512) else (1_000, 2_500, 1_024)
    val ratings = AlgoData.ratingsLike(alsN, alsN, 0.01, sub(seed, 1))
    val mnist = AlgoData.mnistLike(mnistN, sub(seed, 2))
    val yMnist = AlgoData.labels2(mnist, sub(seed, 3))
    val ae = AlgoData.denseFeatures(aeN, 128, sub(seed, 4))
    Workload("sparse-minibatch",
      Seq(Input("ratings", ratings), Input("mnist", mnist), Input("y_mnist", yMnist), Input("ae_X", ae)),
      Seq(
        Call("ALSCG.run", "ratings", c => ALSCG.run(c, LocalData(ratings), rank = 20, outerIter = 2, cgIter = 2)),
        Call("L2SVM.run", "mnist", c => L2SVM.run(c, LocalData(mnist), LocalData(yMnist), maxIter = 3, maxInnerIter = 5)),
        Call("AutoEncoder.run", "ae_X", c => AutoEncoder.run(c, LocalData(ae), h1 = 64, h2 = 2, batch = 512)),
      ),
      local, warmupRounds = 3)
  }

  /** L2SVM + KMeans over a dense X held as `Dataset[BlockRow]`, with a
    * 1 MB local memory budget so large intermediates stay on Spark. */
  private def distScan(seed: Long, toy: Boolean, spark: SparkSession): Workload = {
    val n = if (toy) 2_000 else 10_000
    val blockSize = if (toy) 512 else 2048
    val x = AlgoData.denseFeatures(n, 100, sub(seed, 1))
    val y2 = AlgoData.labels2(x, sub(seed, 2))
    val dx = DistData(DistOps.fromLocal(spark, x, blockSize))
    // one action while setting up, so Spark's own first-job start-up is not
    // part of the cold Gen pass (nothing is persisted: passes rescan X)
    dx.dm.ds.count()
    val cfg = CostConfig(localMemBudget = 1L << 20)
    Workload("dist-scan",
      Seq(Input("X", x), Input("y", y2)),
      Seq(
        Call("L2SVM.run", "X", c => L2SVM.run(c, dx, LocalData(y2), maxIter = 2, maxInnerIter = 3)),
        Call("KMeans.run", "X", c => KMeans.run(c, dx, k = 5, maxIter = 2)),
      ),
      m => new ExecContext(m, cfg, Some(spark), blockSize), warmupRounds = 1)
  }
}
