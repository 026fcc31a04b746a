(* Bounded top-K tracker for fleet-scale streams.

   [Topk] keeps the K highest-scoring subjects seen so far.  Each chunk
   keeps its own tracker over its devices; because every device is
   offered exactly once, the global top K is always contained in the
   union of per-chunk top Ks, so the merged result is *exact*, not an
   approximation — the brute-force worst-device scan, in O(K) memory.

   It orders deterministically (score descending, then natural id
   order) and merges in submission order. *)

let id_compare = Monitor.Health.natural_compare

module Topk = struct
  type 'a entry = { id : string; score : float; payload : 'a }

  type 'a t = {
    k : int;
    mutable entries : 'a entry list; (* sorted: score desc, id asc *)
    mutable size : int;
  }

  let create ~k () =
    if k < 1 then invalid_arg "Topk.create: k must be >= 1";
    { k; entries = []; size = 0 }

  let k t = t.k

  let better a b =
    match Float.compare a.score b.score with
    | 0 -> id_compare a.id b.id < 0
    | c -> c > 0

  let offer t ~id ~score payload =
    let entry = { id; score; payload } in
    let rec insert = function
      | [] -> [ entry ]
      | e :: rest -> if better entry e then entry :: e :: rest else e :: insert rest
    in
    if t.size < t.k then begin
      t.entries <- insert t.entries;
      t.size <- t.size + 1
    end
    else
      match List.rev t.entries with
      | worst :: _ when better entry worst ->
          let rec drop_last = function
            | [] | [ _ ] -> []
            | e :: rest -> e :: drop_last rest
          in
          t.entries <- insert (drop_last t.entries)
      | _ -> ()

  let merge ~into src =
    List.iter
      (fun e -> offer into ~id:e.id ~score:e.score e.payload)
      src.entries

  let to_list t = List.map (fun e -> (e.id, e.score, e.payload)) t.entries
end
