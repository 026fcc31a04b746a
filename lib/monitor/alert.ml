type direction = Above | Below

type rule = {
  rule : string;
  metric : string;
  direction : direction;
  fire : float;
  resolve : float;
}

let rule ?(direction = Above) ~metric ~fire ~resolve name =
  (match direction with
  | Above ->
      if resolve > fire then
        invalid_arg "Alert.rule: Above needs resolve <= fire"
  | Below ->
      if resolve < fire then
        invalid_arg "Alert.rule: Below needs resolve >= fire");
  { rule = name; metric; direction; fire; resolve }

type state = Firing | Resolved

type transition = {
  time : float;
  rule_name : string;
  key : Sampler.Key.t;
  state : state;
  value : float;
}

type t = {
  rules : rule list;
  active : (string * Sampler.Key.t, bool) Hashtbl.t;
  mutable log_rev : transition list;
}

let create rules = { rules; active = Hashtbl.create 32; log_rev = [] }
let rules t = t.rules

let eval t ~time sampler =
  let fresh = ref [] in
  let all = Sampler.series sampler in
  List.iter
    (fun r ->
      List.iter
        (fun ((k : Sampler.Key.t), s) ->
          if k.name = r.metric && k.field = "value" then
            match Series.last s with
            | None -> ()
            | Some v ->
                let id = (r.rule, k) in
                let firing =
                  match Hashtbl.find_opt t.active id with
                  | Some b -> b
                  | None -> false
                in
                let next =
                  match r.direction with
                  | Above -> if firing then v >= r.resolve else v >= r.fire
                  | Below -> if firing then v <= r.resolve else v <= r.fire
                in
                if next <> firing then begin
                  Hashtbl.replace t.active id next;
                  let tr =
                    {
                      time;
                      rule_name = r.rule;
                      key = k;
                      state = (if next then Firing else Resolved);
                      value = v;
                    }
                  in
                  t.log_rev <- tr :: t.log_rev;
                  fresh := tr :: !fresh
                end)
        all)
    t.rules;
  List.rev !fresh

let log t = List.rev t.log_rev

let absorb ~into ?(labels = []) src =
  let relabel tr =
    {
      tr with
      key =
        {
          tr.key with
          Sampler.Key.labels =
            Telemetry.Registry.Labels.v (labels @ tr.key.Sampler.Key.labels);
        };
    }
  in
  (* [log_rev] is newest-first; prepending the source's reversed log
     keeps the chronological order "host transitions, then source". *)
  into.log_rev <- List.map relabel src.log_rev @ into.log_rev

let state_label = function Firing -> "FIRING" | Resolved -> "resolved"

let value_str v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let pp ppf transitions =
  match transitions with
  | [] -> Format.fprintf ppf "  (no alert transitions)@."
  | _ ->
      let sorted =
        List.sort
          (fun a b ->
            match Float.compare a.time b.time with
            | 0 -> (
                match String.compare a.rule_name b.rule_name with
                | 0 -> Sampler.Key.compare a.key b.key
                | c -> c)
            | c -> c)
          transitions
      in
      List.iter
        (fun tr ->
          Format.fprintf ppf "  t=%-5.0f %-8s %-20s %s = %s@." tr.time
            (state_label tr.state) tr.rule_name
            (Sampler.Key.to_string tr.key)
            (value_str tr.value))
        sorted
