type event = { tenant : int; access : Access.t }

(* [events.(0 .. count - 1)] in record order; the slots past [count] are
   spare room, doubled when full, so appending is amortized O(1) and
   iteration allocates nothing. *)
type t = { mutable events : event array; mutable count : int }

let spare = { tenant = 0; access = { Access.kind = Access.Read; lba = 0 } }

let create () = { events = [||]; count = 0 }

let record_event t event =
  if t.count = Array.length t.events then begin
    let events = Array.make (Stdlib.max 64 (2 * t.count)) spare in
    Array.blit t.events 0 events 0 t.count;
    t.events <- events
  end;
  t.events.(t.count) <- event;
  t.count <- t.count + 1

let record t access = record_event t { tenant = 0; access }

let length t = t.count

let capture t pattern rng ~n =
  for _ = 1 to n do
    record t (Pattern.next pattern rng)
  done

let iter_events t f =
  let events = t.events in
  for i = 0 to t.count - 1 do
    f events.(i)
  done

let iter t f = iter_events t (fun e -> f e.access)
let to_events t = List.init t.count (Array.get t.events)
let to_list t = List.init t.count (fun i -> t.events.(i).access)

let of_events events =
  let events = Array.of_list events in
  { events; count = Array.length events }

let of_list accesses =
  of_events (List.map (fun access -> { tenant = 0; access }) accesses)

(* --- on-disk format ------------------------------------------------------- *)

(* Version 1: a line-based format.  The first line is the magic+version
   header; every following non-empty line is one access,

     <tenant> <op> <lba>

   with <op> one of [r] (read), [w] (write), [d] (discard/trim), and
   <tenant>/<lba> decimal integers.  Line-based keeps traces diffable and
   greppable; the version header lets the format evolve without silently
   misreading old artifacts. *)

let format_version = 1
let magic = "salamander-trace"

let op_char = function
  | Access.Read -> 'r'
  | Access.Write -> 'w'
  | Access.Trim -> 'd'

let op_of_char = function
  | 'r' -> Some Access.Read
  | 'w' -> Some Access.Write
  | 'd' -> Some Access.Trim
  | _ -> None

let to_string t =
  let buffer = Buffer.create (16 * t.count + 32) in
  Buffer.add_string buffer (Printf.sprintf "%s v%d\n" magic format_version);
  iter_events t (fun { tenant; access } ->
      Buffer.add_string buffer
        (Printf.sprintf "%d %c %d\n" tenant (op_char access.Access.kind)
           access.Access.lba));
  Buffer.contents buffer

let of_string text =
  let fail line msg = Error (Printf.sprintf "trace line %d: %s" line msg) in
  match String.split_on_char '\n' text with
  | [] -> Error "trace: empty input"
  | header :: body ->
      let expected = Printf.sprintf "%s v%d" magic format_version in
      if String.trim header <> expected then
        Error
          (Printf.sprintf "trace: bad header %S (expected %S)" header expected)
      else begin
        let t = create () in
        let rec go line_no = function
          | [] -> Ok t
          | line :: rest ->
              let line' = String.trim line in
              if line' = "" then go (line_no + 1) rest
              else begin
                match String.split_on_char ' ' line' with
                | [ tenant; op; lba ] when String.length op = 1 -> (
                    match
                      ( int_of_string_opt tenant,
                        op_of_char op.[0],
                        int_of_string_opt lba )
                    with
                    | Some tenant, Some kind, Some lba ->
                        record_event t
                          { tenant; access = { Access.kind; lba } };
                        go (line_no + 1) rest
                    | _ -> fail line_no (Printf.sprintf "cannot parse %S" line')
                    )
                | _ -> fail line_no (Printf.sprintf "cannot parse %S" line')
              end
        in
        go 2 body
      end

let of_file ~path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> of_string text
  | exception Sys_error msg -> Error ("trace: " ^ msg)
