package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.dist.DistMatrix

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  *
  * Every suite must release the distributed data it creates (use
  * `withDist`): `afterAll` fails the suite if any RDD or Dataset is still
  * persisted.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Loan a persisted distributed matrix to `f`, then release it. */
  def withDist[A](m: DistMatrix)(f: DistMatrix => A): A =
    try f(m) finally m.unpersist()

  override def afterAll(): Unit =
    try {
      SparkSession.getDefaultSession.foreach { s =>
        val leaked = s.sparkContext.getPersistentRDDs
        assert(leaked.isEmpty, s"$suiteName left persisted RDDs: ${leaked.values.mkString(", ")}")
        assert(SparkSpec.noCachedData(s), s"$suiteName left cached Datasets")
      }
    } finally super.afterAll()
}

object SparkSpec {
  /** No Dataset is registered with the session's cache manager. */
  def noCachedData(s: SparkSession): Boolean =
    s.asInstanceOf[org.apache.spark.sql.classic.SparkSession].sharedState.cacheManager.isEmpty

  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
