(** Binary BCH codes: the oracle the analytic reliability model is tested
    against.

    A code is constructed for GF(2^m) and a target correction capability
    [t]: codeword length n = 2^m - 1 bits, of which [parity_bits] = deg g(x)
    are parity, leaving k = n - deg g(x) data bits.  Codes are used
    *shortened*: callers may encode fewer than k data bits and the missing
    high-order bits are treated as zero, which is how a fixed-size flash
    spare area hosts a code whose natural length exceeds the sector.

    Encoding is systematic: the codeword is data followed by parity
    (conceptually c(x) = d(x) x^{deg g} + (d(x) x^{deg g} mod g(x))).
    Decoding computes syndromes, runs Berlekamp-Massey to find the error
    locator, and Chien search to locate the flips; binary codes need no
    error-value computation.  Every step is the textbook one (bit-at-a-time
    division, syndromes by direct evaluation, Chien search over the whole
    field): the simulator's reads use {!Reliability}, and this codec only
    has to be obviously right on the small codes the tests run. *)

type t

val create : m:int -> capability:int -> t
(** [create ~m ~capability] builds a code over GF(2^m) correcting
    [capability] bit errors per codeword.
    @raise Invalid_argument if the requested capability leaves no data bits
    (parity would reach or exceed the codeword length). *)

val n : t -> int
(** Codeword length in bits (2^m - 1). *)

val k : t -> int
(** Maximum data bits per codeword. *)

val capability : t -> int
(** Designed correction capability [t] (the code corrects at least this
    many errors; the BCH bound can be loose, so the realized minimum
    distance may be larger). *)

val parity_bits : t -> int

val encode : t -> Bitarray.t -> Bitarray.t
(** [encode code data] returns the [parity_bits code] parity bits for
    [data], which must be at most [k code] bits long. *)

type decode_result =
  | Corrected of int list
      (** Positions (indices into the data array) that were flipped back;
          parity-bit corrections are not reported.  The data array has been
          repaired in place. *)
  | Uncorrectable
      (** More errors than the code can handle were detected; data is left
          untouched. *)

val decode : t -> data:Bitarray.t -> parity:Bitarray.t -> decode_result
(** Correct [data] (and [parity]) in place.  [data] must be at most [k]
    bits; [parity] must be exactly [parity_bits] bits.

    An important caveat inherited from real BCH decoders: when the true
    error count exceeds the capability the decoder usually detects the
    overload, but may occasionally miscorrect to a different valid
    codeword.  Callers needing end-to-end integrity layer a checksum above
    the code, exactly as SSD controllers do. *)
