(** Sizing of BCH codes to flash sector geometry.

    Flash controllers split each physical page into fixed-size codewords:
    a chunk of data plus its share of the spare area.  Given those two byte
    counts this module picks the smallest GF(2^m) whose codeword length
    covers the sector and derives the correction capability from the spare
    budget as t = floor(spare_bits / m) (each corrected error costs m parity
    bits; Marelli & Micheloni 2016).  This is the model behind the paper's
    code-rate discussion and Fig. 2. *)

type t = private {
  data_bytes : int;  (** payload bytes per codeword *)
  spare_bytes : int;  (** parity budget per codeword *)
  m : int;  (** field degree; natural length is 2^m - 1 *)
  capability : int;  (** correctable bit errors per codeword *)
  n_bits : int;  (** shortened codeword length actually stored, in bits *)
  code_rate : float;  (** data / (data + spare) *)
}

val for_sector : data_bytes:int -> spare_bytes:int -> t
(** @raise Invalid_argument if either size is non-positive or the spare
    cannot buy even a single correctable error. *)
