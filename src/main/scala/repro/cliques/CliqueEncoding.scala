package repro.cliques

/** Packs small sorted vertex tuples into 64-bit hash-table keys.
  *
  * The paper's last-level hash tables key (r − ℓ + 1)-cliques by
  * concatenating vertex ids (§5.1) and reserve the key's top bit as the
  * empty/occupied marker (§5.3, stored-pointer method). We pack each vertex
  * into ⌈log₂ n⌉ bits, so at most ⌊62 / bits⌋ vertices fit in one key —
  * bit 63 is the empty marker and bit 62 is kept clear so barrier payloads
  * (up-pointers) can never collide with real keys. Configurations whose
  * last-level key does not fit are infeasible, mirroring the paper's point
  * that a one-level table is impractical for large r.
  */
final class CliqueEncoding(val numVertices: Int) extends Serializable {
  /** Bits needed per vertex id. */
  val bits: Int = math.max(1, 64 - java.lang.Long.numberOfLeadingZeros(math.max(1L, numVertices - 1L)).toInt)

  private val mask: Long = (1L << bits) - 1L

  /** Maximum number of vertices a single key can hold. */
  val maxArity: Int = 62 / bits

  def fits(arity: Int): Boolean = arity >= 1 && arity <= maxArity

  /** Packs `vs(from until from+len)`; first vertex lands in the highest
    * bits so packed order equals lexicographic order of the tuple.
    */
  def pack(vs: Array[Int], from: Int, len: Int): Long = {
    var key = 0L
    var i = 0
    while (i < len) {
      key = (key << bits) | (vs(from + i).toLong & mask)
      i += 1
    }
    key
  }

  /** [[pack]] of the pair `(a, b)`. */
  def packPair(a: Int, b: Int): Long = ((a.toLong & mask) << bits) | (b.toLong & mask)

  /** Inverse of [[pack]]: writes `len` vertices into `out` starting at `at`. */
  def unpack(key: Long, len: Int, out: Array[Int], at: Int): Unit = {
    var i = len - 1
    var k = key
    while (i >= 0) {
      out(at + i) = (k & mask).toInt
      k >>>= bits
      i -= 1
    }
  }
}

object CliqueEncoding {
  /** Bit 63: marks an empty cell / barrier (its low bits hold an up-pointer). */
  val EmptyBit: Long = 1L << 63

  /** Fibonacci (multiplicative) hash of a packed key. */
  @inline def hash(key: Long): Long = {
    var h = key * 0x9E3779B97F4A7C15L
    h ^= h >>> 32
    h
  }
}
