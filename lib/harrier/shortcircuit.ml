type spec = {
  routine : string;
  capture : Vm.Machine.t -> Shadow.t -> Taint.Tagset.t;
  apply : Vm.Machine.t -> Shadow.t -> Taint.Tagset.t -> unit;
}

let gethostbyname =
  { routine = "gethostbyname";
    capture =
      (fun m shadow ->
        (* cdecl: at the Call instruction the first argument is the word
           at (%esp); it points to the hostname string *)
        let arg0 = Vm.Machine.read_word m (Vm.Machine.get_reg m ESP) in
        let name = Vm.Machine.read_cstring m arg0 in
        Shadow.range shadow arg0 (String.length name));
    apply =
      (fun m shadow captured ->
        (* eax points to the 4-byte resolved address *)
        let result = Vm.Machine.get_reg m EAX in
        if result <> 0 then Shadow.set_range shadow result 4 captured) }

type frame = {
  f_spec : spec;
  f_sp : int;  (** esp value when the return address sits on top *)
  f_ret : int;
  f_captured : Taint.Tagset.t;
}

type t = {
  by_routine : (string, spec) Hashtbl.t;
      (* routine-name index, built once — [on_call] runs on every
         monitored library call *)
  mutable frames : frame list;
}

let create specs =
  let by_routine = Hashtbl.create (max 8 (List.length specs)) in
  List.iter
    (fun s ->
      if not (Hashtbl.mem by_routine s.routine) then
        Hashtbl.add by_routine s.routine s)
    specs;
  { by_routine; frames = [] }

let clone t = { by_routine = t.by_routine; frames = t.frames }

let on_call t ~routine m shadow ~ret_addr =
  match Hashtbl.find_opt t.by_routine routine with
  | None -> ()
  | Some spec ->
    let f_captured = spec.capture m shadow in
    let f_sp = Vm.Machine.get_reg m ESP - 4 in
    t.frames <- { f_spec = spec; f_sp; f_ret = ret_addr; f_captured }
                :: t.frames

let on_ret t m shadow =
  match t.frames with
  | [] -> ()
  | frame :: rest ->
    let sp = Vm.Machine.get_reg m ESP in
    if sp = frame.f_sp && Vm.Machine.read_word m sp = frame.f_ret then begin
      t.frames <- rest;
      frame.f_spec.apply m shadow frame.f_captured
    end
