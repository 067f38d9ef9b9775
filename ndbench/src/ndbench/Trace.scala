package ndbench

import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder for the traced run. Each span is (id, name,
  * parent, start, end) in milliseconds since the tracer was created, plus
  * counts recorded at the same boundary. Spans are recorded only around the
  * benchmark's own calls into the program's layers; nothing inside the
  * program is instrumented. Written out once, when the run ends.
  */
final class Tracer(val traceId: String) {
  private final class Span(
      val id: Int,
      val name: String,
      val parent: Int,
      val startNs: Long,
      var endNs: Long,
      val attrs: scala.collection.mutable.LinkedHashMap[String, Any]
  )

  private val origin = System.nanoTime()
  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Span] = Nil

  /** Runs `body` inside a span named `name`, child of the innermost open span. */
  def span[A](name: String)(body: => A): A = {
    val sp = new Span(spans.length, name, open.headOption.fold(-1)(_.id), System.nanoTime(), -1L,
      scala.collection.mutable.LinkedHashMap.empty)
    spans += sp
    open = sp :: open
    try body
    finally {
      sp.endNs = System.nanoTime()
      open = open.tail
    }
  }

  /** Attaches a count or value to the innermost open span. */
  def attr(key: String, value: Any): Unit = open.head.attrs(key) = value

  /** Records the phases the program timed itself (the NucleusStats phases)
    * as consecutive child spans of the last span named `parentName`,
    * starting at its start.
    */
  def phases(parentName: String, durationsMs: Seq[(String, Double)]): Unit = {
    val parent = spans.findLast(_.name == parentName).getOrElse(throw new NoSuchElementException(parentName))
    var t = parent.startNs
    for ((name, ms) <- durationsMs) {
      val end = t + (ms * 1e6).toLong
      spans += new Span(spans.length, name, parent.id, t, end,
        scala.collection.mutable.LinkedHashMap[String, Any]("derived_from" -> "NucleusStats"))
      t = end
    }
  }

  /** Duration in seconds of the last span named `name`. */
  def seconds(name: String): Double = {
    val sp = spans.findLast(_.name == name).getOrElse(throw new NoSuchElementException(name))
    (sp.endNs - sp.startNs) / 1e9
  }

  def toJson: Any = ListMap(
    "trace_id" -> traceId,
    "spans" -> spans.map { sp =>
      ListMap(
        "id" -> sp.id,
        "name" -> sp.name,
        "parent" -> (if (sp.parent < 0) None else Some(sp.parent)),
        "start_ms" -> (sp.startNs - origin) / 1e6,
        "end_ms" -> (sp.endNs - origin) / 1e6,
        "attrs" -> sp.attrs
      )
    }
  )
}
