(* Property-based tests (qcheck) on the core data structures and
   invariants: tag sets, origin classification, values, s-expressions,
   the machine's memory, the assembler/VM against a reference
   interpreter, the filesystem, and engine refraction. *)

open QCheck
let sp = Taint.Tagset.make_space ()

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let source_gen =
  let open Gen in
  oneof
    [ return Taint.Source.User_input;
      return Taint.Source.Hardware;
      map (fun n -> Taint.Source.File ("/f" ^ string_of_int n)) (int_bound 5);
      map (fun n -> Taint.Source.Socket ("s" ^ string_of_int n)) (int_bound 5);
      map (fun n -> Taint.Source.Binary ("/b" ^ string_of_int n))
        (int_bound 5) ]

let source = make ~print:Taint.Source.to_string source_gen

let tagset_gen = Gen.map (Taint.Tagset.of_list sp) (Gen.list_size (Gen.int_bound 6) source_gen)

let tagset = make ~print:Taint.Tagset.to_string tagset_gen

let value_gen =
  let open Gen in
  sized @@ fix (fun self n ->
      if n = 0 then
        oneof
          [ map (fun s -> Expert.Value.Sym ("s" ^ string_of_int s)) (int_bound 9);
            map (fun s -> Expert.Value.Str (String.make (s mod 4) 'x')) (int_bound 9);
            map (fun i -> Expert.Value.Int i) small_signed_int ]
      else
        frequency
          [ 3, self 0;
            1, map (fun l -> Expert.Value.Lst l)
              (list_size (int_bound 3) (self (n / 2))) ])

let value = make ~print:Expert.Value.to_string value_gen

(* ------------------------------------------------------------------ *)
(* Tag sets form a semilattice                                         *)

let prop_union_commutes =
  Test.make ~name:"tagset union commutes" ~count:200 (pair tagset tagset)
    (fun (a, b) ->
      Taint.Tagset.equal ((Taint.Tagset.union sp) a b) ((Taint.Tagset.union sp) b a))

let prop_union_assoc =
  Test.make ~name:"tagset union associates" ~count:200
    (triple tagset tagset tagset) (fun (a, b, c) ->
      Taint.Tagset.equal
        ((Taint.Tagset.union sp) a ((Taint.Tagset.union sp) b c))
        ((Taint.Tagset.union sp) ((Taint.Tagset.union sp) a b) c))

let prop_union_idempotent =
  Test.make ~name:"tagset union idempotent" ~count:200 tagset (fun a ->
      Taint.Tagset.equal a ((Taint.Tagset.union sp) a a))

let prop_union_monotone =
  Test.make ~name:"union preserves membership" ~count:200
    (pair tagset tagset) (fun (a, b) ->
      Taint.Tagset.fold
        (fun s acc -> acc && Taint.Tagset.mem s ((Taint.Tagset.union sp) a b))
        a true)

let prop_of_list_set_semantics =
  Test.make ~name:"of_list deduplicates" ~count:200
    (list_of_size (Gen.int_bound 8) source) (fun l ->
      let t = (Taint.Tagset.of_list sp) l in
      Taint.Tagset.cardinal t
      = List.length (List.sort_uniq Taint.Source.compare l))

(* ------------------------------------------------------------------ *)
(* Interned tag sets agree with a reference Set.Make(Source) model     *)

module Ref_set = Set.Make (Taint.Source)

(* [of_id] maps every interned set's id back to that very node. *)
let same_as_model t model =
  Taint.Tagset.to_list t = Ref_set.elements model
  && Taint.Tagset.cardinal t = Ref_set.cardinal model
  && Taint.Tagset.is_empty t = Ref_set.is_empty model
  && Taint.Tagset.of_id sp (Taint.Tagset.id t) == t

let prop_interned_union_model =
  Test.make ~name:"interned union matches reference set union" ~count:300
    (pair (list_of_size (Gen.int_bound 8) source)
       (list_of_size (Gen.int_bound 8) source))
    (fun (l1, l2) ->
      let t = (Taint.Tagset.union sp) ((Taint.Tagset.of_list sp) l1)
                ((Taint.Tagset.of_list sp) l2) in
      let model = Ref_set.union (Ref_set.of_list l1) (Ref_set.of_list l2) in
      same_as_model t model)

let prop_interned_add_mem_model =
  Test.make ~name:"interned add/mem match reference set" ~count:300
    (pair source (list_of_size (Gen.int_bound 8) source))
    (fun (s, l) ->
      let t = (Taint.Tagset.add sp) s ((Taint.Tagset.of_list sp) l) in
      let model = Ref_set.add s (Ref_set.of_list l) in
      same_as_model t model
      && Taint.Tagset.mem s t
      && List.for_all
           (fun x -> Taint.Tagset.mem x t = Ref_set.mem x model)
           (s :: l))

let prop_interned_equal_is_extensional =
  Test.make ~name:"interned equal/compare agree with element equality"
    ~count:300
    (pair (list_of_size (Gen.int_bound 8) source)
       (list_of_size (Gen.int_bound 8) source))
    (fun (l1, l2) ->
      let a = (Taint.Tagset.of_list sp) l1 and b = (Taint.Tagset.of_list sp) l2 in
      let extensional = Ref_set.equal (Ref_set.of_list l1) (Ref_set.of_list l2) in
      Taint.Tagset.equal a b = extensional
      && (Taint.Tagset.compare a b = 0) = extensional
      && (Taint.Tagset.id a = Taint.Tagset.id b) = extensional)

let prop_interned_filter_model =
  Test.make ~name:"interned filter matches reference set filter" ~count:300
    (list_of_size (Gen.int_bound 8) source)
    (fun l ->
      let keep s = Taint.Source.resource_name s <> None in
      same_as_model
        ((Taint.Tagset.filter sp) keep ((Taint.Tagset.of_list sp) l))
        (Ref_set.filter keep (Ref_set.of_list l)))

(* ------------------------------------------------------------------ *)
(* Origin classification dominance                                     *)

let no_trust (_ : Taint.Source.t) = false

let prop_origin_socket_dominates =
  Test.make ~name:"a socket source always dominates classification"
    ~count:200 tagset (fun t ->
      match Taint.Tagset.sockets t with
      | [] -> QCheck.assume_fail ()
      | _ ->
        (match Taint.Origin.classify ~trusted:no_trust t with
         | Taint.Origin.From_socket _ -> true
         | _ -> false))

let prop_origin_empty_unknown =
  Test.make ~name:"trusting everything yields Unknown" ~count:100 tagset
    (fun t ->
      Taint.Origin.classify ~trusted:(fun _ -> true) t
      = Taint.Origin.Unknown)

let prop_origin_classify_all_consistent =
  Test.make ~name:"classify is the head of classify_all" ~count:200 tagset
    (fun t ->
      match Taint.Origin.classify_all ~trusted:no_trust t with
      | [] -> Taint.Origin.classify ~trusted:no_trust t = Taint.Origin.Unknown
      | k :: _ ->
        Taint.Origin.equal_kind k
          (Taint.Origin.classify ~trusted:no_trust t))

(* ------------------------------------------------------------------ *)
(* Expert values and s-expressions                                     *)

let prop_value_compare_refl =
  Test.make ~name:"value compare reflexive" ~count:200 value (fun v ->
      Expert.Value.compare v v = 0 && Expert.Value.equal v v)

let prop_value_compare_antisym =
  Test.make ~name:"value compare antisymmetric" ~count:200
    (pair value value) (fun (a, b) ->
      let c = Expert.Value.compare a b and c' = Expert.Value.compare b a in
      (c = 0) = (c' = 0) && (c > 0) = (c' < 0))

let rec sexp_of_value (v : Expert.Value.t) : Expert.Sexp.t =
  match v with
  | Sym s -> Expert.Sexp.Atom s
  | Str s -> Expert.Sexp.Quoted s
  | Int n -> Expert.Sexp.Atom (string_of_int n)
  | Lst l -> Expert.Sexp.List (List.map sexp_of_value l)

let prop_sexp_roundtrip =
  Test.make ~name:"sexp print/parse round trip" ~count:200 value (fun v ->
      let s = sexp_of_value v in
      let printed = Fmt.to_to_string Expert.Sexp.pp s in
      Expert.Sexp.parse printed = s)

(* ------------------------------------------------------------------ *)
(* Machine memory                                                      *)

let prop_word_roundtrip =
  Test.make ~name:"machine word store/load round trip" ~count:200
    (pair (int_bound 0xFFF0) (int_bound 0xFFFFFFF)) (fun (addr, v) ->
      let m = Vm.Machine.create () in
      Vm.Machine.write_word m addr v;
      Vm.Machine.read_word m addr = v land 0xFFFFFFFF)

let prop_string_roundtrip =
  Test.make ~name:"machine string write/read round trip" ~count:200
    (pair (int_bound 0xF000) string_printable) (fun (addr, s) ->
      let m = Vm.Machine.create () in
      Vm.Machine.write_string m addr s;
      Vm.Machine.read_bytes m addr (String.length s) = s)

(* ------------------------------------------------------------------ *)
(* Random straight-line programs vs a reference interpreter            *)

type rop = Radd | Rsub | Rxor | Rand | Ror | Rmul

let rop_gen = Gen.oneofl [ Radd; Rsub; Rxor; Rand; Ror; Rmul ]

let reference_step (a, b) (op, operand_is_b, k) =
  let rhs = if operand_is_b then b else k in
  let a' =
    match op with
    | Radd -> a + rhs
    | Rsub -> a - rhs
    | Rxor -> a lxor rhs
    | Rand -> a land rhs
    | Ror -> a lor rhs
    | Rmul -> a * rhs
  in
  (a' land 0xFFFFFFFF), b

let insn_of_step (op, operand_is_b, k) : Isa.Insn.t =
  let src : Isa.Operand.t = if operand_is_b then Reg EBX else Imm k in
  match op with
  | Radd -> Add (Reg EAX, src)
  | Rsub -> Sub (Reg EAX, src)
  | Rxor -> Xor (Reg EAX, src)
  | Rand -> And (Reg EAX, src)
  | Ror -> Or (Reg EAX, src)
  | Rmul -> Mul (Reg EAX, src)

let program_gen =
  Gen.(
    triple (int_bound 0xFFFF) (int_bound 0xFFFF)
      (list_size (int_bound 20)
         (triple rop_gen bool (int_bound 0xFFFF))))

let prop_machine_matches_reference =
  Test.make ~name:"machine ALU agrees with reference interpreter"
    ~count:300
    (make
       ~print:(fun (a, b, steps) ->
         Printf.sprintf "eax=%d ebx=%d steps=%d" a b (List.length steps))
       program_gen)
    (fun (a0, b0, steps) ->
      let expected, _ = List.fold_left reference_step (a0, b0) steps in
      let insns = List.map insn_of_step steps @ [ Isa.Insn.Hlt ] in
      let img =
        Binary.Image.make ~path:"/p" ~kind:Binary.Image.Executable
          ~base:0x1000 ~text:(Array.of_list insns) ~sections:[]
          ~exports:[] ~relocs:[] ~needed:[] ~entry:0x1000
      in
      let m = Vm.Machine.create () in
      Vm.Machine.map_image m img;
      Vm.Machine.set_eip m 0x1000;
      Vm.Machine.set_reg m EAX a0;
      Vm.Machine.set_reg m EBX b0;
      let rec go n =
        if n > 100 then failwith "runaway"
        else
          match Vm.Machine.step m with
          | Vm.Machine.Stopped _ -> ()
          | _ -> go (n + 1)
      in
      go 0;
      Vm.Machine.get_reg m EAX = expected)

(* ------------------------------------------------------------------ *)
(* Filesystem                                                          *)

let prop_fs_roundtrip =
  Test.make ~name:"fs write_at/read_at round trip" ~count:200
    (pair (int_bound 200) string_printable) (fun (pos, s) ->
      let fs = Osim.Fs.create () in
      let f = Osim.Fs.ensure fs "/x" in
      Osim.Fs.write_at f ~pos s;
      Osim.Fs.read_at f ~pos ~len:(String.length s) = s)

(* ------------------------------------------------------------------ *)
(* Shadow memory behaves like a per-byte map                           *)

let prop_shadow_range_union =
  Test.make ~name:"shadow range is the union of its bytes" ~count:100
    (list_of_size (Gen.int_bound 6) (pair (int_bound 16) tagset))
    (fun writes ->
      let s = Harrier.Shadow.create ~space:sp () in
      List.iter (fun (a, t) -> Harrier.Shadow.set_byte s a t) writes;
      let expected =
        List.fold_left
          (fun acc a -> (Taint.Tagset.union sp) acc (Harrier.Shadow.byte s a))
          Taint.Tagset.empty
          (List.init 17 Fun.id)
      in
      Taint.Tagset.equal expected (Harrier.Shadow.range s 0 17))

(* ------------------------------------------------------------------ *)
(* Paged shadow memory agrees with a per-byte map model; operations
   straddle the 4 KiB page boundary on purpose                         *)

type shadow_op =
  | Sset_byte of int * Taint.Tagset.t
  | Sset_range of int * int * Taint.Tagset.t

(* Addresses in [4064, 4064+96): ops cross the page_size = 4096 edge. *)
let shadow_base = 4064
let shadow_span = 96

let shadow_op_gen =
  let open Gen in
  let addr = map (fun o -> shadow_base + o) (int_bound (shadow_span - 1)) in
  oneof
    [ map2 (fun a t -> Sset_byte (a, t)) addr tagset_gen;
      map3 (fun a len t -> Sset_range (a, len, t)) addr (int_bound 40)
        tagset_gen ]

let shadow_ops =
  make
    ~print:(fun ops -> Printf.sprintf "%d shadow ops" (List.length ops))
    (Gen.list_size (Gen.int_bound 12) shadow_op_gen)

let model_apply model = function
  | Sset_byte (a, t) ->
    if Taint.Tagset.is_empty t then Hashtbl.remove model a
    else Hashtbl.replace model a t
  | Sset_range (a, len, t) ->
    for i = a to a + len - 1 do
      if Taint.Tagset.is_empty t then Hashtbl.remove model i
      else Hashtbl.replace model i t
    done

let model_byte model a =
  Option.value (Hashtbl.find_opt model a) ~default:Taint.Tagset.empty

let model_range model a len =
  let acc = ref Taint.Tagset.empty in
  for i = a to a + len - 1 do
    acc := (Taint.Tagset.union sp) !acc (model_byte model i)
  done;
  !acc

let prop_shadow_matches_byte_map =
  Test.make ~name:"paged shadow agrees with a byte-map model" ~count:300
    shadow_ops
    (fun ops ->
      let s = Harrier.Shadow.create ~space:sp () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun op ->
          (match op with
           | Sset_byte (a, t) -> Harrier.Shadow.set_byte s a t
           | Sset_range (a, len, t) -> Harrier.Shadow.set_range s a len t);
          model_apply model op)
        ops;
      let bytes_agree =
        List.for_all
          (fun i ->
            let a = shadow_base + i in
            Taint.Tagset.equal (Harrier.Shadow.byte s a) (model_byte model a))
          (List.init shadow_span Fun.id)
      in
      bytes_agree
      && Taint.Tagset.equal
           (Harrier.Shadow.range s shadow_base shadow_span)
           (model_range model shadow_base shadow_span)
      && Harrier.Shadow.tagged_bytes s = Hashtbl.length model)

let prop_shadow_clone_independent =
  Test.make ~name:"shadow clone is a deep copy" ~count:100
    (pair shadow_ops shadow_ops)
    (fun (ops, after) ->
      let s = Harrier.Shadow.create ~space:sp () in
      List.iter
        (function
          | Sset_byte (a, t) -> Harrier.Shadow.set_byte s a t
          | Sset_range (a, len, t) -> Harrier.Shadow.set_range s a len t)
        ops;
      let snapshot =
        List.init shadow_span (fun i -> Harrier.Shadow.byte s (shadow_base + i))
      in
      let c = Harrier.Shadow.clone s in
      List.iter
        (function
          | Sset_byte (a, t) -> Harrier.Shadow.set_byte c a t
          | Sset_range (a, len, t) -> Harrier.Shadow.set_range c a len t)
        after;
      List.for_all2
        (fun expected i ->
          Taint.Tagset.equal expected (Harrier.Shadow.byte s (shadow_base + i)))
        snapshot
        (List.init shadow_span Fun.id))

(* ------------------------------------------------------------------ *)
(* Engine refraction                                                   *)

let prop_engine_refraction =
  Test.make ~name:"a second run never re-fires" ~count:50
    (int_bound 5) (fun n ->
      let e = Expert.Engine.create () in
      Expert.Engine.deftemplate e
        (Expert.Template.make "t" [ Expert.Template.slot "v" ]);
      Expert.Engine.defrule e
        (Expert.Engine.rule ~name:(Expert.Engine.name "r") [ Expert.Pattern.make "t" [] ]
           (fun _ _ _ -> ()));
      for i = 1 to n do
        ignore (Expert.Engine.assert_fact e "t" [ "v", Expert.Value.Int i ])
      done;
      let first = Expert.Engine.run e in
      let second = Expert.Engine.run e in
      first = n && second = 0)

(* ------------------------------------------------------------------ *)
(* Secure binaries: a program with no data sections is trivially
   secure                                                              *)

let prop_secure_no_data =
  Test.make ~name:"no data sections implies Secure Binary" ~count:50
    (list_of_size (Gen.int_bound 10)
       (make ~print:(fun _ -> "<insn>")
          (Gen.oneofl
             [ Isa.Insn.Nop; Isa.Insn.Cpuid;
               Isa.Insn.Mov (W, Reg EAX, Imm 5); Isa.Insn.Int 0x80 ])))
    (fun insns ->
      let img =
        Binary.Image.make ~path:"/p" ~kind:Binary.Image.Executable
          ~base:0 ~text:(Array.of_list insns) ~sections:[] ~exports:[]
          ~relocs:[] ~needed:[] ~entry:0
      in
      Hth.Secure_binary.is_secure img)

(* ------------------------------------------------------------------ *)
(* Taint propagation vs a reference shadow interpreter                  *)

(* ops over 4 registers: mov r<-r, mov r<-imm, alu r<-r *)
type top = Tmov_rr | Tmov_ri | Talu

let treg_gen = Gen.oneofl [ Isa.Reg.EAX; Isa.Reg.EBX; Isa.Reg.ECX;
                            Isa.Reg.EDX ]

let tstep_gen =
  Gen.(triple (oneofl [ Tmov_rr; Tmov_ri; Talu ]) treg_gen treg_gen)

let imm_tag = (Taint.Tagset.singleton sp) (Taint.Source.Binary "/img")

let reference_taint tags (op, dst, src) =
  let get r = List.assoc (Isa.Reg.index r) tags in
  let set r v =
    (Isa.Reg.index r, v)
    :: List.remove_assoc (Isa.Reg.index r) tags
  in
  match op with
  | Tmov_rr -> set dst (get src)
  | Tmov_ri -> set dst imm_tag
  | Talu -> set dst ((Taint.Tagset.union sp) (get dst) (get src))

let insn_of_tstep (op, dst, src) : Isa.Insn.t =
  match op with
  | Tmov_rr -> Mov (W, Reg dst, Reg src)
  | Tmov_ri -> Mov (W, Reg dst, Imm 7)
  | Talu -> Add (Reg dst, Reg src)

let prop_dataflow_matches_reference =
  Test.make ~name:"dataflow agrees with reference taint interpreter"
    ~count:200
    (make
       ~print:(fun (init, steps) ->
         Printf.sprintf "init=%d steps=%d" (List.length init)
           (List.length steps))
       Gen.(pair (list_size (return 4) tagset_gen)
              (list_size (int_bound 15) tstep_gen)))
    (fun (init, steps) ->
      let init =
        (* pad/trim to exactly 4 register tags *)
        let rec take n = function
          | _ when n = 0 -> []
          | [] -> Taint.Tagset.empty :: take (n - 1) []
          | x :: rest -> x :: take (n - 1) rest
        in
        take 4 init
      in
      let m = Vm.Machine.create () in
      let shadow = Harrier.Shadow.create ~space:sp () in
      List.iteri
        (fun i t -> Harrier.Shadow.set_reg shadow (Isa.Reg.of_index i) t)
        init;
      let reference =
        List.fold_left reference_taint
          (List.mapi (fun i t -> i, t) init)
          steps
      in
      List.iter
        (fun step ->
          ignore
            (Harrier.Dataflow.step shadow m ~imm_tag (insn_of_tstep step)))
        steps;
      List.for_all
        (fun (i, expected) ->
          Taint.Tagset.equal expected
            (Harrier.Shadow.reg shadow (Isa.Reg.of_index i)))
        reference)

(* ------------------------------------------------------------------ *)
(* Observability counters vs ground truth: run a random straight-line
   program (ALU steps, then 0-3 writes to stdout, then Hlt) under a
   full session and check the counters the run collected against
   quantities we can compute exactly.                                   *)

let write_block : Isa.Insn.t list =
  [ Mov (W, Reg EAX, Imm 4) (* SYS_write *);
    Mov (W, Reg EBX, Imm 1) (* stdout *);
    Mov (W, Reg ECX, Imm 0x4000);
    Mov (W, Reg EDX, Imm 8);
    Int 0x80 ]

let prop_obs_counters_ground_truth =
  Test.make ~name:"obs counters agree with ground truth" ~count:30
    (make
       ~print:(fun (steps, writes) ->
         Printf.sprintf "alu=%d writes=%d" (List.length steps) writes)
       Gen.(
         pair
           (list_size (int_bound 15)
              (triple rop_gen bool (int_bound 0xFFFF)))
           (int_bound 3)))
    (fun (steps, writes) ->
      let insns =
        List.map insn_of_step steps
        @ List.concat (List.init writes (fun _ -> write_block))
        @ [ Isa.Insn.Hlt ]
      in
      let img =
        Binary.Image.make ~path:"/p" ~kind:Binary.Image.Executable
          ~base:0x1000 ~text:(Array.of_list insns) ~sections:[]
          ~exports:[] ~relocs:[] ~needed:[] ~entry:0x1000
      in
      let buf = Buffer.create 1024 in
      Obs.Trace.to_buffer buf;
      let r =
        Fun.protect
          ~finally:Obs.Trace.disable
          (fun () ->
            Hth.Engine.run (Hth.Engine.create ())
              (Hth.Engine.setup ~programs:[ img ] ~main:"/p" ()))
      in
      let stat name = Option.value (List.assoc_opt name r.stats) ~default:0 in
      let flow_lines =
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter (fun l ->
               Astring.String.is_infix ~affix:{|"ev":"flow"|} l)
        |> List.length
      in
      let per_kind_sum =
        List.fold_left
          (fun acc kind -> acc + stat ("harrier.events." ^ kind))
          0
          [ "exec"; "clone"; "access"; "alloc"; "transfer" ]
      in
      (* one instruction per kernel tick; no blocking syscall retries *)
      stat "vm.instructions" = List.length steps + (5 * writes) + 1
      && stat "vm.instructions" = r.os_report.rep_ticks
      && stat "harrier.events" = r.event_count
      && per_kind_sum = r.event_count
      && flow_lines = r.event_count
      && stat "secpert.warnings" = List.length r.warnings)

(* ------------------------------------------------------------------ *)
(* [Vm.Machine.run] vs iterated [Vm.Machine.step] on branchy code.  A
   random body runs in a counted loop, with stdin read into the data
   region before the loop and written out after it, together with the
   final EAX–EDX.  The body mixes straight-line runs with forward
   conditional skips (so jump targets land inside straight-line runs),
   backward inner loops counted in EDI and register-indirect jumps
   through EBP; unbalanced pushes and pops move the stack.  One machine
   runs in quanta of random fuel (so quanta end mid-block, at
   [int 0x80] and at stops), its twin one [step] at a time; both
   emulate the two syscalls the same way.                             *)

let branchy_reg =
  Gen.oneofl [ Isa.Reg.EAX; Isa.Reg.EBX; Isa.Reg.ECX; Isa.Reg.EDX ]

(* word-aligned slots inside the 16-byte read buffer plus a little
   tail *)
let branchy_slot = Gen.map (fun k -> 0x4000 + (4 * k)) (Gen.int_bound 7)

let branchy_insn_gen : Isa.Insn.t Gen.t =
  let open Gen in
  let reg = map (fun r -> Isa.Operand.Reg r) branchy_reg in
  let imm = map (fun k -> Isa.Operand.Imm k) (int_bound 0xFFFF) in
  let mem = map (fun d -> Isa.Operand.mem d) branchy_slot in
  let alu =
    map3
      (fun op d s : Isa.Insn.t ->
        match op with
        | Radd -> Add (d, s)
        | Rsub -> Sub (d, s)
        | Rxor -> Xor (d, s)
        | Rand -> And (d, s)
        | Ror -> Or (d, s)
        | Rmul -> Mul (d, s))
      rop_gen reg (oneof [ reg; imm ])
  in
  frequency
    [ 4, alu;
      2, map2 (fun d s -> Isa.Insn.Mov (W, d, s)) reg (oneof [ reg; imm ]);
      2, map2 (fun r m -> Isa.Insn.Mov (W, r, m)) reg mem;
      2, map2 (fun m r -> Isa.Insn.Mov (W, m, r)) mem reg;
      1, map2 (fun r m -> Isa.Insn.Mov (B, r, m)) reg mem;
      1, map2 (fun m r -> Isa.Insn.Mov (B, m, r)) mem reg;
      1,
      map3
        (fun r b d ->
          Isa.Insn.Lea
            (r, { Isa.Operand.base = Some b; index = None; scale = 1;
                  disp = d }))
        branchy_reg branchy_reg (int_bound 64);
      1,
      map2
        (fun r k -> Isa.Insn.Cmp (W, Isa.Operand.Reg r, Isa.Operand.Imm k))
        branchy_reg (int_bound 255);
      1,
      map2
        (fun a b -> Isa.Insn.Test (Isa.Operand.Reg a, Isa.Operand.Reg b))
        branchy_reg branchy_reg;
      1, map (fun r -> Isa.Insn.Inc (Isa.Operand.Reg r)) branchy_reg;
      1, map (fun r -> Isa.Insn.Dec (Isa.Operand.Reg r)) branchy_reg;
      1, map (fun r -> Isa.Insn.Push (Isa.Operand.Reg r)) branchy_reg;
      1, map (fun r -> Isa.Insn.Pop (Isa.Operand.Reg r)) branchy_reg;
      1, map (fun m -> Isa.Insn.Pop m) mem;
      1, return Isa.Insn.Cpuid;
      1, return Isa.Insn.Nop ]

(* One piece of a loop body.  Jumps land on a piece boundary of their
   own sequence, at most at its end, so no jump enters an inner loop
   past its counter set-up.  [branchy_insn_gen] writes only EAX–EDX, so
   the EDI and ESI loop counters and the EBP jump register are the
   loops' and jumps' own. *)
type branchy_piece =
  | Straight of Isa.Insn.t
  | Skip of Isa.Insn.cond * int  (* jcc over the next k pieces *)
  | Via_ebp of int  (* mov ebp, <k pieces past the jmp>; jmp ebp *)
  | Inner of int * branchy_piece list  (* mov edi, n; L: ...; dec edi; jnz L *)

let rec piece_size = function
  | Straight _ | Skip _ -> 1
  | Via_ebp _ -> 2
  | Inner (_, body) -> 3 + List.fold_left (fun n p -> n + piece_size p) 0 body

(* [lay_out pc pieces] is the code of [pieces] placed at address [pc]
   (one address per instruction). *)
let rec lay_out pc pieces : Isa.Insn.t list =
  let starts = Array.make (List.length pieces + 1) pc in
  List.iteri (fun i p -> starts.(i + 1) <- starts.(i) + piece_size p) pieces;
  let past i k = starts.(min (List.length pieces) (i + 1 + k)) in
  List.concat
    (List.mapi
       (fun i p : Isa.Insn.t list ->
         match p with
         | Straight insn -> [ insn ]
         | Skip (c, k) -> [ Jcc (c, Imm (past i k)) ]
         | Via_ebp k -> [ Mov (W, Reg EBP, Imm (past i k)); Jmp (Reg EBP) ]
         | Inner (n, body) ->
           let head = starts.(i) + 1 in
           (Isa.Insn.Mov (W, Reg EDI, Imm n) :: lay_out head body)
           @ [ Dec (Reg EDI); Jcc (NZ, Imm head) ])
       pieces)

let branchy_piece_gen : branchy_piece Gen.t =
  let open Gen in
  let flat =
    [ 12, map (fun i -> Straight i) branchy_insn_gen;
      2,
      map2 (fun c k -> Skip (c, k))
        (oneofl Isa.Insn.[ Z; NZ; L; LE; G; GE; S; NS ])
        (int_range 1 6);
      1, map (fun k -> Via_ebp k) (int_bound 3) ]
  in
  frequency
    ((1,
      map2 (fun n body -> Inner (n, body)) (int_range 1 4)
        (list_size (int_bound 8) (frequency flat)))
    :: flat)

(* read(stdin, 0x4000, 16); loop iters times over the body; store
   EAX–EDX after the body's slots and write all 48 bytes to stdout;
   halt.  One address per instruction, so the loop head is
   base + 6. *)
let branchy_program iters pieces : Isa.Insn.t list =
  let loop_head = 0x1000 + 6 in
  [ Isa.Insn.Mov (W, Reg EAX, Imm 3) (* SYS_read *);
    Mov (W, Reg EBX, Imm 0);
    Mov (W, Reg ECX, Imm 0x4000);
    Mov (W, Reg EDX, Imm 16);
    Int 0x80;
    Mov (W, Reg ESI, Imm iters) ]
  @ lay_out loop_head pieces
  @ [ Isa.Insn.Dec (Reg ESI);
      Jcc (NZ, Imm loop_head);
      Mov (W, Isa.Operand.mem 0x4020, Reg EAX);
      Mov (W, Isa.Operand.mem 0x4024, Reg EBX);
      Mov (W, Isa.Operand.mem 0x4028, Reg ECX);
      Mov (W, Isa.Operand.mem 0x402C, Reg EDX);
      Mov (W, Reg EAX, Imm 4) (* SYS_write *);
      Mov (W, Reg EBX, Imm 1);
      Mov (W, Reg ECX, Imm 0x4000);
      Mov (W, Reg EDX, Imm 48);
      Int 0x80;
      Hlt ]

(* The program's read and write, emulated on the machine alone: read
   copies [input] into the buffer, write appends the buffer to [out];
   each returns its byte count in EAX. *)
let emulate_syscall m out =
  let input = "ABCDEFGHIJKLMNOP" in
  let get = Vm.Machine.get_reg m in
  let buf = get ECX and len = get EDX in
  let n =
    match get EAX with
    | 3 ->
      let n = min len (String.length input) in
      Vm.Machine.write_string m buf (String.sub input 0 n);
      n
    | 4 ->
      Buffer.add_string out (Vm.Machine.read_bytes m buf len);
      len
    | _ -> -1
  in
  Vm.Machine.set_reg m EAX n

(* Drive [branchy_program]'s machine to its stop with [advance], which
   runs some instructions and returns the outcome and how many retired.
   The result is the final machine, the console, the retired total, the
   [on_bb] and [pre_insn] addresses in order, and the [vm.*] counter
   diff. *)
let drive insns advance =
  let m = Vm.Machine.create () in
  Vm.Machine.map_image m
    (Binary.Image.make ~path:"/p" ~kind:Binary.Image.Executable ~base:0x1000
       ~text:(Array.of_list insns) ~sections:[] ~exports:[] ~relocs:[]
       ~needed:[] ~entry:0x1000);
  Vm.Machine.set_eip m 0x1000;
  Vm.Machine.set_reg m ESP 0xF000;
  let bbs = ref [] and pres = ref [] in
  Vm.Machine.set_hooks m
    { on_bb = (fun _ addr -> bbs := addr :: !bbs);
      pre_insn = (fun _ addr _ -> pres := addr :: !pres) };
  let out = Buffer.create 64 in
  let before = Obs.snapshot () in
  let rec go k retired =
    match advance k m with
    | Vm.Machine.Stopped _, n -> retired + n
    | Vm.Machine.Syscall _, n ->
      emulate_syscall m out;
      go (k + 1) (retired + n)
    | Vm.Machine.Continue, n -> go (k + 1) (retired + n)
  in
  let retired = go 0 0 in
  let vm =
    List.filter
      (fun (n, _) -> String.starts_with ~prefix:"vm." n)
      (Obs.diff ~before ~after:(Obs.snapshot ()))
  in
  (m, Buffer.contents out, retired, List.rev !bbs, List.rev !pres, vm)

let prop_run_matches_step =
  Test.make ~name:"run agrees with step on branchy code" ~count:40
    ~long_factor:10
    (make
       ~print:(fun ((iters, pieces), fuels) ->
         Printf.sprintf "iters=%d fuels=[%s] body=[%s]" iters
           (String.concat "; " (List.map string_of_int fuels))
           (String.concat "; "
              (List.map Isa.Insn.to_string (lay_out 0x1006 pieces))))
       Gen.(
         pair
           (pair (int_range 1 8) (list_size (int_bound 24) branchy_piece_gen))
           (list_size (int_range 1 8) (int_range 1 40))))
    (fun ((iters, pieces), fuels) ->
      let insns = branchy_program iters pieces in
      let fuels = Array.of_list fuels in
      let ran, out_r, retired_r, bbs_r, pres_r, vm_r =
        drive insns (fun k m ->
            Vm.Machine.run m ~fuel:fuels.(k mod Array.length fuels))
      in
      let stepped, out_s, retired_s, bbs_s, pres_s, vm_s =
        drive insns (fun _ m -> (Vm.Machine.step m, 1))
      in
      let bytes m lo hi = Vm.Machine.read_bytes m lo (hi - lo) in
      List.for_all
        (fun r -> Vm.Machine.get_reg ran r = Vm.Machine.get_reg stepped r)
        Isa.Reg.all
      && Vm.Machine.eip ran = Vm.Machine.eip stepped
      && Vm.Machine.status ran = Vm.Machine.status stepped
      && bytes ran 0x4000 0x4100 = bytes stepped 0x4000 0x4100
      && bytes ran 0xE000 Vm.Machine.mem_size
         = bytes stepped 0xE000 Vm.Machine.mem_size
      && out_r = out_s && retired_r = retired_s && bbs_r = bbs_s
      && pres_r = pres_s && vm_r = vm_s)

(* ------------------------------------------------------------------ *)
(* Flow-line round trip for random events                               *)

(* Names that stress the codec: the separators of the structured
   fields, quotes, backslashes, NUL and bytes >= 0x80, besides plain
   printable and fully arbitrary strings. *)
let name_gen =
  Gen.(
    oneof
      [ string_printable; string;
        map (String.concat "")
          (list_size (int_bound 5)
             (oneofl
                [ "\""; "\\"; ";"; "<-"; "{"; "}"; ", "; "\000"; "\x80";
                  "\xff"; "("; ")"; " "; "a" ])) ])

let wild_tagset_gen =
  let source =
    Gen.(
      oneof
        [ return Taint.Source.User_input; return Taint.Source.Hardware;
          map (fun n -> Taint.Source.File n) name_gen;
          map (fun n -> Taint.Source.Socket n) name_gen;
          map (fun n -> Taint.Source.Binary n) name_gen ])
  in
  Gen.map (Taint.Tagset.of_list sp) (Gen.list_size (Gen.int_bound 4) source)

let resource_gen =
  Gen.map2
    (fun kind (name, origin) : Harrier.Events.resource ->
      { r_kind = kind; r_name = name; r_origin = origin })
    (Gen.oneofl
       [ Harrier.Events.R_file; Harrier.Events.R_socket;
         Harrier.Events.R_stdio ])
    (Gen.pair name_gen wild_tagset_gen)

let meta_gen =
  Gen.map2
    (fun (pid, time, freq, addr) step : Harrier.Events.meta ->
      { pid; time; freq; addr; step })
    Gen.(quad small_nat small_nat small_nat small_nat)
    Gen.small_nat

let event_gen =
  let open Gen in
  let annotated n = list_size (int_bound n) (pair source_gen wild_tagset_gen) in
  oneof
    [ map3
        (fun path argv meta -> Harrier.Events.Exec { path; argv; meta })
        resource_gen
        (list_size (int_bound 3) name_gen)
        meta_gen;
      map3
        (fun (total, recent) window meta ->
          Harrier.Events.Clone { total; recent; window; meta })
        (pair small_nat small_nat) small_nat meta_gen;
      map3
        (fun call res meta -> Harrier.Events.Access { call; res; meta })
        (oneofl [ "SYS_open"; "SYS_connect"; "SYS_bind" ])
        resource_gen meta_gen;
      map3
        (fun requested total meta ->
          Harrier.Events.Alloc { requested; total; meta })
        small_nat small_nat meta_gen;
      map3
        (fun (data, head, sources, guard) (target, via_server) (len, meta) ->
          Harrier.Events.Transfer
            { call = "SYS_write"; data; head; sources; guard; target;
              via_server; len; meta })
        (quad wild_tagset_gen string (annotated 3) (annotated 2))
        (pair resource_gen (option resource_gen))
        (pair small_nat meta_gen) ]

let event =
  make
    ~print:(fun e -> Fmt.to_to_string Harrier.Events.pp e)
    event_gen

(* Encode with [Events.to_fields], render through an [Obs.Trace]
   buffer, read back with [Forensics.Reader] and decode: every field
   survives, and each event's step is its line's step. *)
let prop_trace_roundtrip =
  Test.make ~name:"trace serialize/parse round trip" ~count:300
    (list_of_size (Gen.int_bound 5) event) (fun events ->
      let buf = Buffer.create 1024 in
      Obs.Trace.to_buffer buf;
      Fun.protect ~finally:Obs.Trace.disable (fun () ->
          List.iter
            (fun e -> Obs.Trace.emit "flow" (Harrier.Events.to_fields e))
            events);
      match
        Result.bind
          (Forensics.Reader.of_string (Buffer.contents buf))
          Forensics.Reader.events
      with
      | Error _ -> false
      | Ok events' ->
        List.length events = List.length events'
        && List.for_all2
             (fun a b ->
               Harrier.Events.to_fields a = Harrier.Events.to_fields b)
             events events'
        && List.for_all2
             (fun i e -> (Harrier.Events.meta_of e).step = i)
             (List.init (List.length events') Fun.id)
             events')

let props =
  [ prop_union_commutes; prop_union_assoc; prop_union_idempotent;
    prop_union_monotone; prop_of_list_set_semantics;
    prop_interned_union_model; prop_interned_add_mem_model;
    prop_interned_equal_is_extensional; prop_interned_filter_model;
    prop_shadow_matches_byte_map; prop_shadow_clone_independent;
    prop_origin_socket_dominates; prop_origin_empty_unknown;
    prop_origin_classify_all_consistent; prop_value_compare_refl;
    prop_value_compare_antisym; prop_sexp_roundtrip; prop_word_roundtrip;
    prop_string_roundtrip; prop_machine_matches_reference;
    prop_fs_roundtrip; prop_shadow_range_union; prop_engine_refraction;
    prop_secure_no_data; prop_trace_roundtrip;
    prop_dataflow_matches_reference; prop_obs_counters_ground_truth;
    prop_run_matches_step ]

(* ------------------------------------------------------------------ *)
(* Reproducible randomness.  QCHECK_SEED=<int> pins the generator seed;
   without it a fresh seed is drawn, and any failing case prints the
   seed so the exact run can be replayed.                               *)

(* Pure so it is unit-testable: the environment value wins when it
   parses as an integer, otherwise fall back to the fresh draw. *)
let resolve_seed ~env ~fresh =
  match env with
  | None -> fresh
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n -> n
     | None -> fresh)

let seed =
  resolve_seed
    ~env:(Sys.getenv_opt "QCHECK_SEED")
    ~fresh:(Random.self_init (); Random.int 1_000_000_000)

let to_alcotest_seeded test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| seed |])
      test
  in
  let run () =
    try run ()
    with e ->
      Printf.eprintf
        "\n[qcheck] reproduce this failure with: QCHECK_SEED=%d dune \
         runtest --force\n\
         %!"
        seed;
      raise e
  in
  (name, speed, run)

let seed_resolution_case =
  Alcotest.test_case "QCHECK_SEED resolution" `Quick (fun () ->
      let check msg want ~env =
        Alcotest.(check int) msg want (resolve_seed ~env ~fresh:7)
      in
      check "env wins" 42 ~env:(Some "42");
      check "whitespace tolerated" 42 ~env:(Some " 42\n");
      check "negative accepted" (-3) ~env:(Some "-3");
      check "garbage falls back to fresh" 7 ~env:(Some "not-a-seed");
      check "absent falls back to fresh" 7 ~env:None)

let suite =
  seed_resolution_case :: List.map to_alcotest_seeded props
