type t = {
  read_us : float;
  program_us : float;
  erase_us : float;
  transfer_us_per_kib : float;
  retry_us : float;
  decode_us_per_error : float;
}

let default =
  {
    read_us = 60.;
    program_us = 700.;
    erase_us = 5000.;
    transfer_us_per_kib = 0.25;
    retry_us = 40.;
    decode_us_per_error = 0.02;
  }

let expected_retries ~margin =
  if margin < 0.5 then 0
  else Stdlib.min 4 (1 + int_of_float ((margin -. 0.5) /. 0.5))

let fpage_read_us t ~data_kib ~raw_errors ~retries =
  t.read_us
  +. (float_of_int retries *. t.retry_us)
  +. (data_kib *. t.transfer_us_per_kib)
  +. (raw_errors *. t.decode_us_per_error)

let fpage_program_us t ~data_kib =
  t.program_us +. (data_kib *. t.transfer_us_per_kib)

let erase_us t = t.erase_us
