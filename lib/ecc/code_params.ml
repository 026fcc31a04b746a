type t = {
  data_bytes : int;
  spare_bytes : int;
  m : int;
  capability : int;
  n_bits : int;
  code_rate : float;
}

let smallest_field_degree total_bits =
  let rec search m = if (1 lsl m) - 1 >= total_bits then m else search (m + 1) in
  search 3

let for_sector ~data_bytes ~spare_bytes =
  if data_bytes <= 0 then invalid_arg "Code_params: data_bytes must be > 0";
  if spare_bytes <= 0 then invalid_arg "Code_params: spare_bytes must be > 0";
  let n_bits = 8 * (data_bytes + spare_bytes) in
  let m = smallest_field_degree n_bits in
  let capability = 8 * spare_bytes / m in
  if capability <= 0 then
    invalid_arg "Code_params: spare area too small for any correction";
  {
    data_bytes;
    spare_bytes;
    m;
    capability;
    n_bits;
    code_rate =
      float_of_int data_bytes /. float_of_int (data_bytes + spare_bytes);
  }
