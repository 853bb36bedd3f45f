package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Benchmarks

/** spark-submit entrypoints, one per evaluation table:
  *   spark-submit --class repro.jobs.Table4Job repro.jar [scale]
  */
private object JobUtil {
  def sparkSession(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def scaleArg(args: Array[String]): Int =
    args.headOption.map(_.toInt).getOrElse(1)
}

object Table3Job {
  def main(args: Array[String]): Unit =
    println(Benchmarks.printTable3(Benchmarks.table3()))
}

object Table4Job {
  def main(args: Array[String]): Unit =
    println(Benchmarks.printRuntimeTable(
      "Table 4: Runtime of Data-Intensive Algorithms [s]",
      Benchmarks.table4(JobUtil.scaleArg(args))))
}

object Table5Job {
  def main(args: Array[String]): Unit =
    println(Benchmarks.printRuntimeTable(
      "Table 5: Runtime of Compute-Int. Algorithms [s]",
      Benchmarks.table5(JobUtil.scaleArg(args))))
}

object Table6Job {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.sparkSession("repro-table6")
    try println(Benchmarks.printRuntimeTable(
      "Table 6: Runtime of Distributed Algorithms [s]",
      Benchmarks.table6(spark, JobUtil.scaleArg(args))))
    finally spark.stop()
  }
}
