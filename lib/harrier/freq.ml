(* Counts are held as [int ref] cells so the hot path — the same block
   entered back-to-back, i.e. every iteration of a tight guest loop — is
   one integer compare and an [incr] through [last_cell], with no
   lookup. *)

type t = {
  counts : (int, int ref) Hashtbl.t;  (* leader -> count *)
  mutable last_app : int;  (* leader of the last app BB; -1 before any *)
  mutable last_cell : int ref;  (* the count cell of [last_app] *)
}

(* [last_cell] before any application block ran; never incremented,
   since no leader equals -1. *)
let no_cell = ref 0

let create () =
  { counts = Hashtbl.create 32; last_app = -1; last_cell = no_cell }

let on_bb t ~is_app addr =
  if is_app then begin
    if addr = t.last_app then incr t.last_cell
    else begin
      let cell =
        match Hashtbl.find_opt t.counts addr with
        | Some c -> c
        | None ->
          let c = ref 0 in
          Hashtbl.add t.counts addr c;
          c
      in
      incr cell;
      t.last_app <- addr;
      t.last_cell <- cell
    end
  end

let attributed_bb t = if t.last_app < 0 then None else Some t.last_app

let event_frequency t = !(t.last_cell)

let count t addr =
  match Hashtbl.find_opt t.counts addr with
  | Some c -> !c
  | None -> 0

let blocks t = Hashtbl.fold (fun addr c acc -> (addr, !c) :: acc) t.counts []

let copy t =
  let counts = Hashtbl.copy t.counts in
  Hashtbl.filter_map_inplace (fun _ c -> Some (ref !c)) counts;
  let last_cell =
    match Hashtbl.find_opt counts t.last_app with
    | Some c -> c
    | None -> no_cell
  in
  { counts; last_app = t.last_app; last_cell }
