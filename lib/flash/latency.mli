(** Timing model for flash operations (microseconds).

    {!default} is the simulator's one set of device timings: the
    performance experiments (Figs. 3c and 3d, the AB-ECC-PLACE and
    AB-QUEUE ablations), the chip's modelled operation time and the
    traffic replayer's device charges all read it.  An access that spans
    more fPages pays more page reads and transfers, which is exactly how
    RegenS's 4/(4-L) degradation arises.  Read-retry latency grows as
    the error count approaches the code's capability, modelling the
    iterative voltage adjustment described in §2. *)

type t = private {
  read_us : float;  (** array-to-register sense time per fPage *)
  program_us : float;
  erase_us : float;
  transfer_us_per_kib : float;  (** channel transfer per KiB *)
  retry_us : float;  (** one additional sensing retry *)
  decode_us_per_error : float;  (** ECC decode effort per raw error *)
}

val default : t
(** Representative TLC timings: 60 us read, 700 us program, 5 ms erase,
    0.25 us/KiB transfer (~4 GB/s channel), 40 us per read-retry rung,
    0.02 us of decode per raw bit error. *)

val expected_retries : margin:float -> int
(** Retry count as the RBER margin degrades: [margin] is
    (rber / tolerable_rber) for the page's code; below 0.5 no retries,
    then one retry per additional half of the margin (0 at margin<0.5,
    1 at <1.0, 2 at <1.5, capped at 4). *)

val fpage_read_us :
  t -> data_kib:float -> raw_errors:float -> retries:int -> float
(** Latency of reading one fPage and transferring [data_kib] of data from
    it, with ECC decode effort for [raw_errors] expected raw bit errors. *)

val fpage_program_us : t -> data_kib:float -> float
val erase_us : t -> float
