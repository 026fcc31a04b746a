module Key = struct
  type t = {
    name : string;
    labels : Telemetry.Registry.Labels.t;
    field : string;
  }

  let compare a b =
    match String.compare a.name b.name with
    | 0 -> (
        match
          String.compare
            (Telemetry.Registry.Labels.to_string a.labels)
            (Telemetry.Registry.Labels.to_string b.labels)
        with
        | 0 -> String.compare a.field b.field
        | c -> c)
    | c -> c

  let to_string k =
    let labels =
      match k.labels with
      | [] -> ""
      | labels -> "{" ^ Telemetry.Registry.Labels.to_string labels ^ "}"
    in
    let field = if k.field = "value" then "" else "." ^ k.field in
    k.name ^ labels ^ field
end

type t = { capacity : int; table : (Key.t, Series.t) Hashtbl.t }

let create ?(capacity = 256) () = { capacity; table = Hashtbl.create 64 }

let key ?(labels = []) name =
  { Key.name; labels = Telemetry.Registry.Labels.v labels; field = "value" }

let series_for t k =
  match Hashtbl.find_opt t.table k with
  | Some s -> s
  | None ->
      let s = Series.create ~capacity:t.capacity () in
      Hashtbl.replace t.table k s;
      s

let observe t ~time k v = Series.add (series_for t k) ~time v

let sample t ~time registry =
  List.iter
    (fun (s : Telemetry.Registry.sample) ->
      let k field = { Key.name = s.name; labels = s.labels; field } in
      match s.value with
      | Telemetry.Registry.Counter v ->
          observe t ~time (k "value") (float_of_int v)
      | Telemetry.Registry.Gauge v -> observe t ~time (k "value") v
      | Telemetry.Registry.Histogram sum ->
          observe t ~time (k "count") (float_of_int sum.count);
          if sum.count > 0 then begin
            observe t ~time (k "mean") sum.mean;
            observe t ~time (k "p50") sum.p50;
            observe t ~time (k "p99") sum.p99;
            observe t ~time (k "p999") sum.p999
          end)
    (Telemetry.Registry.snapshot registry)

let series t =
  Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> Key.compare a b)

let find t k = Hashtbl.find_opt t.table k

let merge ~into ?(labels = []) src =
  List.iter
    (fun ((k : Key.t), s) ->
      let k =
        { k with Key.labels = Telemetry.Registry.Labels.v (labels @ k.labels) }
      in
      let dst = series_for into k in
      List.iter (Series.append_point dst) (Series.points s))
    (series src)
