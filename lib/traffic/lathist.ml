(* A request-latency histogram with root-cause attribution, layered over
   the shared log-linear [Sim.Stats.Histogram].  The attribution channel
   is allocated on the first tagged observation, so untagged histograms
   stay one plain histogram: one histogram per cause bit over the same
   bucket space, plus the single highest-latency tagged op. *)

module H = Sim.Stats.Histogram

let tags_width = 8

type t = {
  all : H.t;
  mutable causes : H.t array; (* per tag bit; [||] = none yet *)
  mutable exemplar : (float * int) option; (* worst tagged (us, tags) *)
}

let create () = { all = H.create (); causes = [||]; exemplar = None }
let observe t v = H.add t.all v

let ensure_causes t =
  if Array.length t.causes = 0 then
    t.causes <- Array.init tags_width (fun _ -> H.create ())

(* Strict [>]: the first op to reach the max keeps the slot, so
   sequential and chunk-merged replays (merged in submission order)
   agree. *)
let offer_exemplar t (v, _ as e) =
  match t.exemplar with
  | Some (best, _) when v <= best -> ()
  | _ -> t.exemplar <- Some e

let observe_tagged t v ~tags =
  observe t v;
  let tags = tags land ((1 lsl tags_width) - 1) in
  if tags <> 0 then begin
    ensure_causes t;
    for bit = 0 to tags_width - 1 do
      if tags land (1 lsl bit) <> 0 then H.add t.causes.(bit) v
    done;
    offer_exemplar t (v, tags)
  end

let count t = H.count t.all
let sum t = H.sum t.all
let mean t = H.mean t.all
let min t = H.min t.all
let max t = H.max t.all
let percentile t q = H.percentile t.all q

(* Counts "at and above percentile q" are counts from the bucket holding
   the percentile, which [H.percentile] always reports a value of. *)
let count_above t q =
  if count t = 0 then 0 else H.count_from t.all (percentile t q)

let tag_totals_above t q =
  if count t = 0 || Array.length t.causes = 0 then Array.make tags_width 0
  else
    let p = percentile t q in
    Array.map (fun h -> H.count_from h p) t.causes

(* The best exemplar in "the percentile's bucket and above" is the
   global tagged max whenever that max lies there, and none otherwise. *)
let exemplar_above t q =
  match t.exemplar with
  | Some (v, _) when H.bucket_index v >= H.bucket_index (percentile t q) ->
      t.exemplar
  | _ -> None

let merge ~into src =
  H.merge ~into:into.all src.all;
  if Array.length src.causes <> 0 then begin
    ensure_causes into;
    Array.iteri (fun bit h -> H.merge ~into:into.causes.(bit) h) src.causes
  end;
  Option.iter (offer_exemplar into) src.exemplar

let pp_row ppf t =
  if count t = 0 then
    Format.fprintf ppf "%10s %10s %10s %10s %10s" "-" "-" "-" "-" "-"
  else
    Format.fprintf ppf "%10.1f %10.1f %10.1f %10.1f %10.1f" (percentile t 0.5)
      (percentile t 0.95) (percentile t 0.99) (percentile t 0.999) (max t)
