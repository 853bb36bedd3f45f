package repro
import repro.runtime.{CellExec, ExecRef, JavaBackend}
class BackendActiveSpec extends SparkSpec {
  private def cellSource(body: String) =
    s"""package repro.codegen;
      |public final class ${JavaBackend.ClassName} extends repro.runtime.CellExec {
      |  public double genexec(double a, repro.runtime.MatrixBlock[] b, int rix, int cix) { $body }
      |}
      |""".stripMargin

  test("Java codegen backend is active") {
    val gx = ExecRef[CellExec](cellSource("return a + 1.0;")).get
    assert(gx.genexec(2.0, Array.empty, 0, 0) == 3.0)
  }

  test("generated code sees only runtime classes; a failed compile is not cached") {
    for (cls <- Seq("org.apache.spark.SparkContext", "repro.compiler.Codegen")) {
      val bad = cellSource(s"return $cls.class.hashCode();")
      for (_ <- 1 to 2) {
        val e = intercept[IllegalStateException](JavaBackend.load(bad))
        assert(e.getMessage.startsWith("janino failed") && e.getMessage.contains(bad))
      }
    }
    val gx = ExecRef[CellExec](cellSource("return a * 4.0;")).get
    assert(gx.genexec(2.0, Array.empty, 0, 0) == 8.0)
  }

  // After some fifteen reflective instantiations of one class the JDK
  // generates an accessor class that resolves jdk.internal.* classes
  // through the generated class's loader, so that loader must reach them.
  test("a generated class is instantiated on many short-lived threads") {
    val ref = ExecRef[CellExec](cellSource("return a + 2.0;"))
    val failures = (1 to 50).flatMap { _ =>
      var failure: Option[Throwable] = None
      val t = new Thread(() =>
        try assert(ref.get.genexec(1.0, Array.empty, 0, 0) == 3.0)
        catch { case e: Throwable => failure = Some(e) })
      t.start()
      t.join()
      failure
    }
    assert(failures.isEmpty, s"${failures.size} of 50 threads failed, first: ${failures.headOption.orNull}")
  }

  test("after clearCache a thread gets an instance of the recompiled class") {
    val ref = ExecRef[CellExec](cellSource("return a - 5.0;"))
    val before = ref.get.getClass
    JavaBackend.clearCache()
    assert(JavaBackend.load(ref.source), "a cleared source must be compiled again")
    val after = ref.get
    assert(after.getClass ne before)
    assert(after.genexec(7.0, Array.empty, 0, 0) == 2.0)
  }
}
