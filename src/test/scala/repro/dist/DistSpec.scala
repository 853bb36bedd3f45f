package repro.dist

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.scheduler._
import org.apache.spark.storage.StorageLevel
import repro.{SparkSpec, TestLA}
import repro.compiler._
import repro.core._
import repro.runtime._
import repro.runtime.Ops._

/** Distributed runtime: basic Dataset[BlockRow] operators against local
  * kernels, fused distributed execution (map/mapGroups over row blocks)
  * against local fused execution, and the lifetimes of cached data. */
class DistSpec extends SparkSpec {

  private val blockSize = 32
  private def distCtx(mode: ExecMode = GenMode(CostBased), budget: Long = 4L << 10) =
    new ExecContext(mode, CostConfig(localMemBudget = budget, distLatencyS = 0.0),
      Some(spark), blockSize)
  private def dist(m: MatrixBlock): DistMatrix = DistOps.fromLocal(spark, m, blockSize)

  private val xDense  = MatrixBlock.rand(100, 12, 1.0, 1, min = -1, max = 1)
  private val xSparse = MatrixBlock.rand(100, 12, 0.2, 2, min = -1, max = 1)

  import DistSpec.Observed

  private def observe[A](f: => A): (A, Observed) = {
    val sc = spark.sparkContext
    val bytes = new AtomicLong
    val cached = ConcurrentHashMap.newKeySet[Int]()
    val unpersisted = ConcurrentHashMap.newKeySet[Int]()
    val markerJob = new AtomicInteger(-1)
    val drained = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
        Option(e.stageInfo.taskMetrics).foreach(m => bytes.addAndGet(m.shuffleWriteMetrics.bytesWritten))
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
        e.stageInfo.rddInfos.filter(_.storageLevel.isValid).foreach(r => cached.add(r.id))
      // the context cleaner also reports RDDs released long ago once they
      // are garbage collected; only caches read while `f` ran count
      override def onUnpersistRDD(e: SparkListenerUnpersistRDD): Unit = unpersisted.add(e.rddId)
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (e.properties != null && e.properties.getProperty("spark.job.description") == "drain")
          markerJob.set(e.jobId)
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        if (e.jobId == markerJob.get) drained.countDown()
    }
    sc.addSparkListener(listener)
    try {
      val res = f
      // a listener sees events in posting order: once the marker job has
      // ended, every event `f` caused has been delivered
      sc.setJobDescription("drain")
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
      assert(drained.await(60, TimeUnit.SECONDS), "listener bus did not drain")
      unpersisted.retainAll(cached)
      (res, Observed(bytes.get, unpersisted.size))
    } finally sc.removeSparkListener(listener)
  }

  test("fromLocal/toLocal round trip (dense, sparse, odd block boundary)") {
    for (m <- Seq(xDense, xSparse, MatrixBlock.rand(97, 5, 1.0, 3))) withDist(dist(m)) { dm =>
      assert(MatrixBlock.maxAbsDiff(DistOps.toLocal(dm), m) == 0.0)
    }
  }
  test("fromLocal persists X: a second action over it writes no shuffle bytes") {
    withDist(dist(xDense)) { dm =>
      assert(dm.ds.storageLevel != StorageLevel.NONE)
      // the first action runs the reblock's repartition shuffle and fills the cache
      assert(observe(DistOps.toLocal(dm))._2.shuffleBytes > 0)
      assert(observe(DistOps.toLocal(dm))._2.shuffleBytes == 0)
    }
  }
  test("distributed unary") {
    withDist(dist(xDense)) { dm =>
      val got = DistOps.toLocal(DistOps.unary(Sigmoid, dm))
      assert(MatrixBlock.maxAbsDiff(got, LocalOps.unary(Sigmoid, xDense)) < 1e-12)
    }
  }
  test("distributed binary dist-dist") {
    withDist(dist(xDense)) { a =>
      withDist(dist(xSparse)) { b =>
        val got = DistOps.toLocal(DistOps.binaryDistDist(Plus, a, b))
        assert(MatrixBlock.maxAbsDiff(got, LocalOps.binary(Plus, xDense, xSparse)) < 1e-12)
      }
    }
  }
  test("distributed binary with broadcast row vector and sliced column vector") {
    withDist(dist(xDense)) { a =>
      val rv = MatrixBlock.rand(1, 12, 1.0, 4)
      val cv = MatrixBlock.rand(100, 1, 1.0, 5)
      assert(MatrixBlock.maxAbsDiff(
        DistOps.toLocal(DistOps.binaryDistLocal(Mult, a, rv)),
        LocalOps.binary(Mult, xDense, rv)) < 1e-12)
      assert(MatrixBlock.maxAbsDiff(
        DistOps.toLocal(DistOps.binaryDistLocal(Plus, a, cv)),
        LocalOps.binary(Plus, xDense, cv)) < 1e-12)
    }
  }
  test("distributed binary with broadcast local lhs: matrix, sliced column vector, scalar") {
    withDist(dist(xSparse)) { b =>
      val lm = MatrixBlock.rand(100, 12, 1.0, 21, min = -1, max = 1)
      assert(MatrixBlock.maxAbsDiff(
        DistOps.toLocal(DistOps.binaryLocalDist(Minus, lm, b)),
        LocalOps.binary(Minus, lm, xSparse)) < 1e-12)
      assert(MatrixBlock.maxAbsDiff(
        DistOps.toLocal(DistOps.binaryScalarLeft(Minus, 3.0, b)),
        LocalOps.binaryScalarLeft(Minus, 3.0, xSparse)) < 1e-12)
    }
    val c0 = MatrixBlock.rand(100, 1, 1.0, 22, min = -1, max = 1)
    withDist(dist(c0)) { c =>
      val cv = MatrixBlock.rand(100, 1, 1.0, 23)
      assert(MatrixBlock.maxAbsDiff(
        DistOps.toLocal(DistOps.binaryLocalDist(Mult, cv, c)),
        LocalOps.binary(Mult, cv, c0)) < 1e-12)
    }
  }
  test("distributed matmul with broadcast rhs") {
    withDist(dist(xDense)) { a =>
      val w = MatrixBlock.rand(12, 4, 1.0, 6, min = -1, max = 1)
      val got = DistOps.toLocal(DistOps.matmulDistLocal(a, w))
      assert(MatrixBlock.maxAbsDiff(got, LocalOps.matmul(xDense, w)) < 1e-9)
    }
  }
  test("distributed matmul with broadcast lhs") {
    withDist(dist(xSparse)) { r =>
      val l = MatrixBlock.rand(4, 100, 1.0, 24, min = -1, max = 1)
      assert(MatrixBlock.maxAbsDiff(DistOps.matmulLocalDist(l, r), LocalOps.matmul(l, xSparse)) < 1e-9)
    }
  }
  test("distributed t(X) %*% Z, Z distributed") {
    val zL = MatrixBlock.rand(100, 3, 1.0, 7, min = -1, max = 1)
    withDist(dist(xDense)) { a =>
      withDist(dist(zL)) { z =>
        val got = DistOps.matmulTransposeLeft(a, Left(z))
        val expect = LocalOps.matmul(LocalOps.transpose(xDense), zL)
        assert(MatrixBlock.maxAbsDiff(got, expect) < 1e-9)
      }
    }
  }
  test("distributed t(X) %*% Z, Z local broadcast") {
    withDist(dist(xSparse)) { a =>
      val zL = MatrixBlock.rand(100, 3, 1.0, 8, min = -1, max = 1)
      val got = DistOps.matmulTransposeLeft(a, Right(zL))
      val expect = LocalOps.matmul(LocalOps.transpose(xSparse), zL)
      assert(MatrixBlock.maxAbsDiff(got, expect) < 1e-9)
    }
  }
  test("distributed transpose reblocks t(X) (dense, sparse, partial blocks both ways)") {
    for (m <- Seq(MatrixBlock.rand(97, 40, 1.0, 32), MatrixBlock.rand(97, 40, 0.1, 33))) {
      withDist(DistOps.fromLocal(spark, m, 16)) { dm =>
        val t = DistOps.transpose(dm)
        assert((t.rows, t.cols, t.blockSize) == ((40L, 97L, 16)))
        val blocks = t.ds.collect().sortBy(_.rbi)
        assert(blocks.map(b => (b.rbi, b.rows, b.cols)).toSeq == Seq((0, 16, 97), (1, 16, 97), (2, 8, 97)))
        assert(blocks.forall(_.sparse == m.isSparseFormat))
        assert(MatrixBlock.maxAbsDiff(DistOps.toLocal(t), LocalOps.transpose(m)) == 0.0)
      }
    }
  }
  test("distributed aggregations (full/col/row, sum/min/max)") {
    withDist(dist(xDense)) { a =>
      for (f <- Seq(SumAgg, MinAgg, MaxAgg)) {
        assert(MatrixBlock.maxAbsDiff(DistOps.fullAgg(f, a), LocalOps.agg(f, FullDir, xDense)) < 1e-9)
        assert(MatrixBlock.maxAbsDiff(DistOps.colAgg(f, a), LocalOps.agg(f, ColDir, xDense)) < 1e-9)
        assert(MatrixBlock.maxAbsDiff(DistOps.toLocal(DistOps.rowAgg(f, a)), LocalOps.agg(f, RowDir, xDense)) < 1e-9)
      }
    }
  }

  /** Full pipeline over a distributed X vs the same pipeline local. */
  private def distVsLocal(tol: Double = 1e-9)(build: (ExecContext, MX) => Seq[MX]): Unit = {
    for (x0 <- Seq(xDense, xSparse)) withDist(dist(x0)) { dm =>
      for (mode <- TestLA.allModes) {
        val dCtx = distCtx(mode)
        val dx = dCtx.bindDist("X", dm)
        val dRes = dCtx.eval(build(dCtx, dx)).map(_.toLocal)
        val lCtx = new ExecContext(BaseMode)
        val lx = lCtx.bindLocal("X", x0)
        val lRes = lCtx.eval(build(lCtx, lx)).map(_.toLocal)
        dRes.zip(lRes).foreach { case (d, l) =>
          assert(MatrixBlock.maxAbsDiff(d, l) < tol, s"mode=${mode.label} dense=${!x0.isSparseFormat}")
        }
      }
    }
  }

  test("distributed cell chain with aggregate equals local (all modes)") {
    distVsLocal() { (ctx, x) =>
      implicit val c: ExecContext = ctx
      Seq(((x * 2.0 + 1.0) ^ 2.0).sum, (x * x).rowSums)
    }
  }
  test("distributed mmchain t(X)(w*(Xv)) equals local (all modes)") {
    distVsLocal(1e-8) { (ctx, x) =>
      implicit val c: ExecContext = ctx
      val v = ctx.bindLocal("v", MatrixBlock.rand(12, 1, 1.0, 9))
      val w = ctx.bindLocal("w", MatrixBlock.rand(100, 1, 1.0, 10, min = 0.1, max = 1))
      Seq(x.t %*% (w * (x %*% v)))
    }
  }
  test("distributed Eq2 row pattern equals local (all modes)") {
    distVsLocal(1e-8) { (ctx, x) =>
      implicit val c: ExecContext = ctx
      val p = ctx.bindLocal("P", MatrixBlock.rand(100, 4, 1.0, 11, min = 0.1, max = 1))
      val v = ctx.bindLocal("V", MatrixBlock.rand(12, 4, 1.0, 12, min = -1, max = 1))
      val q = p * (x %*% v)
      Seq(x.t %*% (q - p * q.rowSums))
    }
  }
  test("distributed multi-aggregate equals local (all modes)") {
    distVsLocal(1e-8) { (ctx, x) =>
      implicit val c: ExecContext = ctx
      val y = ctx.bindLocal("Y", MatrixBlock.rand(100, 12, 1.0, 13, min = -1, max = 1))
      Seq((x ^ 2.0).sum, (x * y).sum)
    }
  }
  test("sum(Y * X) with local Y and distributed X equals local (all modes)") {
    distVsLocal(1e-8) { (ctx, x) =>
      implicit val c: ExecContext = ctx
      val y = ctx.bindLocal("Y", MatrixBlock.rand(100, 12, 1.0, 25, min = -1, max = 1))
      Seq((y * x).sum)
    }
  }
  test("distributed outer-product operator equals local (Gen)") {
    val x0 = MatrixBlock.rand(100, 80, 0.1, 14, min = 0.1, max = 1)
    val u0 = MatrixBlock.rand(100, 5, 1.0, 15, min = -1, max = 1)
    val v0 = MatrixBlock.rand(80, 5, 1.0, 16, min = -1, max = 1)
    // closing-matmult operands other than U and V: W is row-aligned with
    // X (sliced per block), W2 with X's columns (broadcast whole)
    val w0 = MatrixBlock.rand(100, 3, 1.0, 18, min = -1, max = 1)
    val w20 = MatrixBlock.rand(80, 3, 1.0, 19, min = -1, max = 1)
    def roots(ctx: ExecContext, x: MX): Seq[MX] = {
      implicit val c: ExecContext = ctx
      val u = ctx.bindLocal("U", u0); val v = ctx.bindLocal("V", v0)
      val w = ctx.bindLocal("W", w0); val w2 = ctx.bindLocal("W2", w20)
      Seq((x.neq0 * (u %*% v.t)) %*% v, (x * ((u %*% v.t) + 8.0).log).sum,
        (x.neq0 * (u %*% v.t)).t %*% w, (x.neq0 * (u %*% v.t)) %*% w2)
    }
    val lCtx = new ExecContext(BaseMode)
    val expect = lCtx.eval(roots(lCtx, lCtx.bindLocal("X", x0))).map(_.toLocal)
    val dCtx = distCtx()
    val got = withDist(dist(x0)) { dm =>
      val rs = roots(dCtx, dCtx.bindDist("X", dm))
      val outer = dCtx.compilePlan(rs.drop(2).map(_.hop)).ops.collect { case PFused(s) if s.tpe == OuterTpl => s }
      assert(outer.size == 2, outer)
      dCtx.eval(rs).map(_.toLocal)
    }
    got.zip(expect).foreach { case (g, e) => assert(MatrixBlock.maxAbsDiff(g, e) < 1e-8) }
  }

  /** `build` over X in `modes`, X distributed (block 16, a 2 KB budget, so
    * t(X) stays distributed), against `refMode` over X local. */
  private def overDistX(build: (ExecContext, MX) => MX, xs: Seq[MatrixBlock] = Seq(xDense, xSparse),
                        modes: Seq[ExecMode] = TestLA.allModes, refMode: ExecMode = BaseMode): Unit =
    for (x0 <- xs) withDist(DistOps.fromLocal(spark, x0, 16)) { dm =>
      val lCtx = new ExecContext(refMode)
      val expect = build(lCtx, lCtx.bindLocal("X", x0)).eval().toLocal
      for (mode <- modes) {
        val ctx = new ExecContext(mode, CostConfig(localMemBudget = 2048, distLatencyS = 0.0), Some(spark), 16)
        val got = build(ctx, ctx.bindDist("X", dm)).eval().toLocal
        assert(got.rows == expect.rows && got.cols == expect.cols, mode.label)
        assert(MatrixBlock.maxAbsDiff(got, expect) < 1e-9, s"mode=${mode.label} dense=${!x0.isSparseFormat}")
      }
    }

  test("abs(t(X)) over distributed X equals local (all modes)") {
    overDistX((_, x) => x.t.abs)
  }
  test("t(X) max v with v 12x1 over distributed X equals local (all modes)") {
    overDistX((ctx, x) => x.t max ctx.bindLocal("v", MatrixBlock.rand(12, 1, 1.0, 26, min = -1, max = 1)))
  }
  test("t(X) as a root over distributed X equals local (all modes)") {
    overDistX((_, x) => x.t)
  }
  test("V %*% t(X) with V 5x12 local over distributed X equals local (all modes)") {
    overDistX((ctx, x) => ctx.bindLocal("V", MatrixBlock.rand(5, 12, 1.0, 27, min = -1, max = 1)) %*% x.t)
  }

  // ---- a side the operator reads whole is broadcast whole ----------------
  // B has as many rows as X, but a matmult reads its right operand whole:
  // B must not be sliced per row block of X.
  private val xSquare = Seq(MatrixBlock.rand(64, 64, 1.0, 32, min = -1, max = 1),
    MatrixBlock.rand(64, 64, 0.2, 33, min = -1, max = 1))
  private val bTall = MatrixBlock.rand(64, 3, 1.0, 34, min = -1, max = 1)
  private val genModes = Seq(CostBased, FuseAll, FuseNoRedundancy).map(GenMode)
  test("sum(sigmoid(X %*% B)) with B 64x3 local over distributed X 64x64 equals local (all modes)") {
    overDistX((ctx, x) => (x %*% ctx.bindLocal("B", bTall)).sigmoid.sum, xSquare)
  }
  test("abs(X) %*% B with B 64x3 local over distributed X 64x64 equals local (all modes)") {
    overDistX((ctx, x) => x.abs %*% ctx.bindLocal("B", bTall), xSquare)
  }
  test("rowSums(abs(X) %*% B) with B 64x3 local over distributed X 64x64 equals local (all modes)") {
    overDistX((ctx, x) => (x.abs %*% ctx.bindLocal("B", bTall)).rowSums, xSquare)
  }
  // The generated code reads the main input by row, so it cannot also read
  // it whole as a matmult's right operand: per block, that would be the
  // block. Gen then reads abs(X) by row and X whole. Base, Fused, Gen-FA
  // and Gen-FNR run abs(X) %*% X as a basic operator, which has no
  // distributed-distributed matmult, so only Gen runs, against Gen over X
  // local.
  test("rowSums(abs(X) %*% X) over distributed X 64x64 equals Gen over X local") {
    overDistX((_, x) => (x.abs %*% x).rowSums, xSquare, Seq(GenMode(CostBased)), GenMode(CostBased))
  }
  // t(X) is distributed and read whole, so it is collected and broadcast.
  // Base has no operator for a distributed-distributed matmult, so the Gen
  // modes are checked against Gen over X local.
  test("X %*% t(X) over distributed X 60x20 equals Gen over X local (Gen modes)") {
    overDistX((_, x) => x %*% x.t, Seq(MatrixBlock.rand(60, 20, 1.0, 35, min = -1, max = 1)),
      genModes, GenMode(CostBased))
  }

  test("t(X) %*% y and t(X) %*% Z under Base read distributed X in place, in one pass") {
    val zL = MatrixBlock.rand(100, 3, 1.0, 28, min = -1, max = 1)
    val yL = MatrixBlock.rand(100, 1, 1.0, 29, min = -1, max = 1)
    withDist(dist(xDense)) { dm =>
      withDist(dist(zL)) { dz =>
        DistOps.toLocal(dm) // the reblock's shuffle, before anything is observed
        val ctx = distCtx(BaseMode)
        implicit val c: ExecContext = ctx
        val x = ctx.bindDist("X", dm)
        for ((z, zLocal) <- Seq((ctx.bindLocal("y", yL), yL), (ctx.bindDist("Z", dz), zL))) {
          val xtz = x.t %*% z
          val plan = ctx.compilePlan(Seq(xtz.hop))
          assert(!plan.ops.exists { case PBasic(_: TransposeHop, _) => true; case _ => false }, plan)
          assert(plan.toString.contains(s"basic ${xtz.hop} inputs=${x.hop},${z.hop}"), plan)
          val (got, seen) = observe(xtz.eval().toLocal)
          assert(MatrixBlock.maxAbsDiff(got, LocalOps.matmul(LocalOps.transpose(xDense), zLocal)) < 1e-9)
          if (zLocal eq yL) assert(seen.shuffleBytes == 0, "t(X) %*% y over cached X must not shuffle")
        }
      }
    }
  }

  test("t(Y) %*% y with a local leaf Y above the budget equals local (all modes)") {
    // a leaf lives where it was bound: Y is local, above the budget or not
    val yBig = MatrixBlock.rand(100, 12, 1.0, 30, min = -1, max = 1)
    val yL = MatrixBlock.rand(100, 1, 1.0, 31, min = -1, max = 1)
    val expect = LocalOps.matmul(LocalOps.transpose(yBig), yL)
    for (mode <- TestLA.allModes) {
      val ctx = distCtx(mode)
      implicit val c: ExecContext = ctx
      val big = ctx.bindLocal("Y", yBig)
      assert(!CostModel.isDistributedHop(big.hop, ctx.cfg))
      val got = (big.t %*% ctx.bindLocal("y", yL)).eval().toLocal
      assert(MatrixBlock.maxAbsDiff(got, expect) < 1e-9, mode.label)
    }
  }

  test("distributed plans actually use distributed fused operators") {
    val dCtx = distCtx()
    implicit val c: ExecContext = dCtx
    withDist(dist(xDense)) { dm =>
      val x = dCtx.bindDist("X", dm)
      val plan = dCtx.compilePlan(Seq(((x * 2.0) ^ 2.0).sum.hop))
      assert(plan.fusedOps.nonEmpty, plan.toString)
    }
  }

  // ---- lifetimes of cached data ---------------------------------------

  /** KMeans' distance/assignment DAG, with `X %*% t(C)` (returned first)
    * read by two operators. */
  private def kmeansShaped(ctx: ExecContext, x: MX): (MX, Seq[MX]) = {
    implicit val c: ExecContext = ctx
    val cm = ctx.bindLocal("C", MatrixBlock.rand(5, 12, 1.0, 17, min = -1, max = 1))
    val xc = x %*% cm.t
    val d = xc * -2.0 + ((cm ^ 2.0).rowSums).t
    val minD = d.rowMins
    val a = d.eqv(minD)
    (xc, Seq(a.colSums, a.t %*% x, minD.sum + xc.sum))
  }

  test("shared distributed X %*% t(C) is cached for one eval; all modes match Base") {
    val budget = 2L << 10 // X %*% t(C) (100 x 5, 4 KB) stays distributed
    val expect = {
      val ctx = new ExecContext(BaseMode)
      ctx.eval(kmeansShaped(ctx, ctx.bindLocal("X", xDense))._2).map(_.toLocal)
    }
    for (mode <- TestLA.allModes) {
      withDist(dist(xDense)) { dm =>
        val ctx = distCtx(mode, budget)
        val (xc, roots) = kmeansShaped(ctx, ctx.bindDist("X", dm))
        val (got, seen) = observe(ctx.eval(roots).map(_.toLocal))
        got.zip(expect).foreach { case (g, e) => assert(MatrixBlock.maxAbsDiff(g, e) < 1e-8, mode.label) }
        if (mode == BaseMode) {
          assert(CostModel.isDistributedHop(xc.hop, ctx.cfg))
          assert(ctx.compilePlan(roots.map(_.hop)).ops.count(_.inputs.exists(_ eq xc.hop)) == 2)
          assert(seen.releasedCaches >= 1, "no shared intermediate was cached and released")
        }
        assert(dm.ds.storageLevel != StorageLevel.NONE, s"${mode.label} released the leaf")
      }
      // with the leaf released nothing is left: only the leaf was cached
      assert(SparkSpec.noCachedData(spark), s"${mode.label} left intermediates cached")
    }
  }
  test("an eval over t(X) leaves the leaf X cached (all modes)") {
    withDist(dist(xDense)) { dm =>
      for (mode <- TestLA.allModes) {
        val ctx = distCtx(mode)
        implicit val c: ExecContext = ctx
        // t(X) shares X's Dataset and is read twice
        val xt = ctx.bindDist("X", dm).t
        val a = ctx.bindLocal("a", MatrixBlock.rand(100, 1, 1.0, 18))
        val b = ctx.bindLocal("b", MatrixBlock.rand(100, 1, 1.0, 19))
        ctx.eval(Seq(xt %*% a, xt %*% b))
        assert(dm.ds.storageLevel != StorageLevel.NONE, mode.label)
      }
    }
  }
  test("an eval that throws mid-plan leaves no intermediate cached") {
    withDist(dist(xDense)) { dm =>
      val ctx = distCtx(BaseMode)
      implicit val c: ExecContext = ctx
      // X %*% W (100 x 8, 6.4 KB) stays distributed and is read twice; the
      // sum runs first and fills its cache, then distributed row slicing throws
      val xw = ctx.bindDist("X", dm) %*% ctx.bindLocal("W", MatrixBlock.rand(12, 8, 1.0, 20))
      val (_, seen) = observe(intercept[UnsupportedOperationException](ctx.eval(Seq(xw.sum, xw.sliceRows(0, 10)))))
      assert(seen.releasedCaches == 1)
      assert(dm.ds.storageLevel != StorageLevel.NONE)
      assert(spark.sparkContext.getPersistentRDDs.size == 1)
    }
    assert(SparkSpec.noCachedData(spark))
  }
}

object DistSpec {
  /** What the listener bus reported while a block of code ran: shuffle
    * bytes written, and cached RDDs that were read and then released. */
  final case class Observed(shuffleBytes: Long, releasedCaches: Int)
}
