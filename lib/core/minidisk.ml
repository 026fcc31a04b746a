type state = Active | Draining | Decommissioned

type t = {
  id : int;
  slot : int;
  opages : int;
  birth_level : int;
  mutable state : state;
}

module Registry = struct
  type mdisk = t

  type view = {
    active : mdisk array;
    base : int array;
    position : int array;
    owner : mdisk option array;
  }

  type t = {
    opages_per_mdisk : int;
    by_id : (int, mdisk) Hashtbl.t;
    mutable free_slots : int list;
    mutable next_id : int;
    mutable view : view;
  }

  (* Slot owners in [state], in increasing id order. *)
  let owners_in owner state =
    Array.fold_left
      (fun acc m ->
        match m with
        | Some mdisk when mdisk.state = state -> mdisk :: acc
        | _ -> acc)
      [] owner
    |> List.sort (fun a b -> compare a.id b.id)

  (* Built only by the mutators and never written afterwards: a reader
     holding a view across a mutation keeps a consistent (old) table. *)
  let derive ~opages_per_mdisk owner =
    let active = Array.of_list (owners_in owner Active) in
    let position = Array.make (Array.length owner) (-1) in
    Array.iteri (fun i mdisk -> position.(mdisk.slot) <- i) active;
    let base = Array.map (fun mdisk -> mdisk.slot * opages_per_mdisk) active in
    { active; base; position; owner }

  let rebuild t owner =
    t.view <- derive ~opages_per_mdisk:t.opages_per_mdisk owner

  (* Give a fresh minidisk the next free slot, recording it in [owner];
     the caller rebuilds the view once it is done. *)
  let claim t owner ~birth_level =
    match t.free_slots with
    | [] -> None
    | slot :: rest ->
        t.free_slots <- rest;
        let mdisk =
          {
            id = t.next_id;
            slot;
            opages = t.opages_per_mdisk;
            birth_level;
            state = Active;
          }
        in
        t.next_id <- t.next_id + 1;
        Hashtbl.add t.by_id mdisk.id mdisk;
        owner.(slot) <- Some mdisk;
        Some mdisk

  let create ~opages_per_mdisk ~slots ~initial =
    if opages_per_mdisk <= 0 then
      invalid_arg "Minidisk.Registry.create: opages_per_mdisk";
    if slots <= 0 then invalid_arg "Minidisk.Registry.create: slots";
    let owner = Array.make slots None in
    let t =
      {
        opages_per_mdisk;
        by_id = Hashtbl.create 64;
        free_slots = List.init slots Fun.id;
        next_id = 0;
        view = derive ~opages_per_mdisk [||] (* replaced below *);
      }
    in
    for _ = 1 to initial do
      ignore (claim t owner ~birth_level:0)
    done;
    rebuild t owner;
    t

  let opages_per_mdisk t = t.opages_per_mdisk
  let view t = t.view

  let create_mdisk t ~birth_level =
    let owner = Array.copy t.view.owner in
    match claim t owner ~birth_level with
    | None -> None
    | Some _ as created ->
        rebuild t owner;
        created

  let decommission t id =
    match Hashtbl.find_opt t.by_id id with
    | None -> raise Not_found
    | Some mdisk ->
        if mdisk.state = Decommissioned then
          invalid_arg "Minidisk.Registry.decommission: already decommissioned";
        mdisk.state <- Decommissioned;
        t.free_slots <- mdisk.slot :: t.free_slots;
        let owner = Array.copy t.view.owner in
        owner.(mdisk.slot) <- None;
        rebuild t owner;
        mdisk

  let begin_drain t id =
    match Hashtbl.find_opt t.by_id id with
    | None -> raise Not_found
    | Some mdisk ->
        if mdisk.state <> Active then
          invalid_arg "Minidisk.Registry.begin_drain: not active";
        mdisk.state <- Draining;
        rebuild t t.view.owner;
        mdisk

  let draining t = owners_in t.view.owner Draining

  let find t id = Hashtbl.find_opt t.by_id id
  let active t = Array.to_list t.view.active
  let active_count t = Array.length t.view.active
  let active_opages t = active_count t * t.opages_per_mdisk
  let created_total t = t.next_id

  let engine_logical t mdisk ~lba =
    if lba < 0 || lba >= mdisk.opages then
      invalid_arg "Minidisk: LBA outside minidisk";
    (mdisk.slot * t.opages_per_mdisk) + lba
end
