type t = {
  registry : Telemetry.Registry.t;
  pool : Parallel.Pool.t option;
  monitor : Monitor.Engine.t option;
  obs : Obs.Fleet_report.Acc.t option;
}

let default =
  { registry = Telemetry.Registry.null; pool = None; monitor = None; obs = None }

let make ?(registry = Telemetry.Registry.null) ?pool ?monitor ?obs () =
  { registry; pool; monitor; obs }

let sub ctx =
  (* A monitor samples the task's scratch registry, so it forces live
     sub-registries even when the context registry itself is null.
     Scratch registries are unshared (plain-ref metric cells): exactly
     one domain owns one until the barrier merge publishes it. *)
  let registry =
    if Telemetry.Registry.is_null ctx.registry && Option.is_none ctx.monitor
    then Telemetry.Registry.null
    else Telemetry.Registry.create ~shared:false ()
  in
  {
    registry;
    pool = None;
    monitor = Option.map Monitor.Engine.sub ctx.monitor;
    obs = Option.map Obs.Fleet_report.Acc.sub ctx.obs;
  }

let absorb ctx ?labels sub =
  Telemetry.Registry.merge ~into:ctx.registry sub.registry;
  (match (ctx.monitor, sub.monitor) with
  | Some into, Some sub -> Monitor.Engine.absorb ~into ?labels sub
  | _ -> ());
  match (ctx.obs, sub.obs) with
  | Some into, Some sub -> Obs.Fleet_report.Acc.merge ~into sub
  | _ -> ()

let map ctx ?labels items f =
  (* The scratch context is created on the worker that runs the task. *)
  let results =
    Parallel.Pool.map_opt ctx.pool
      (fun item ->
        let sub = sub ctx in
        (f sub item, sub))
      items
  in
  List.map2
    (fun item (result, sub) ->
      absorb ctx ?labels:(Option.map (fun labels -> labels item) labels) sub;
      result)
    items results
