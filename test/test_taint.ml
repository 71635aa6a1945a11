(* Unit tests for the taint domain: sources, tag sets, origin
   classification (Table 2). *)

open Taint

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let src_user = Source.User_input
let src_file = Source.File "/data/a"
let src_sock = Source.Socket "evil:80"
let src_bin = Source.Binary "/bin/x"
let src_libc = Source.Binary "/lib/libc.so"
let src_hw = Source.Hardware

let no_trust (_ : Source.t) = false

(* one shared arena for every tag set this file builds *)
let sp = Tagset.make_space ()

let test_source_equal () =
  check "same file equal" true (Source.equal (File "/a") (File "/a"));
  check "different file" false (Source.equal (File "/a") (File "/b"));
  check "kinds differ" false (Source.equal User_input Hardware);
  check "sock vs file" false (Source.equal (Socket "/a") (File "/a"))

let test_source_order () =
  check "compare reflexive" true (Source.compare src_bin src_bin = 0);
  check "antisymmetric" true
    (Source.compare src_user src_hw = -Source.compare src_hw src_user)

let test_source_names () =
  check_str "user type" "USER_INPUT" (Source.type_name src_user);
  check_str "file type" "FILE" (Source.type_name src_file);
  check_str "socket type" "SOCKET" (Source.type_name src_sock);
  check_str "binary type" "BINARY" (Source.type_name src_bin);
  check_str "hardware type" "HARDWARE" (Source.type_name src_hw);
  Alcotest.(check (option string))
    "file name" (Some "/data/a")
    (Source.resource_name src_file);
  Alcotest.(check (option string))
    "user has no name" None
    (Source.resource_name src_user)

let test_source_pp () =
  check_str "pp binary" "BINARY(\"/bin/x\")" (Source.to_string src_bin);
  check_str "pp hardware" "HARDWARE" (Source.to_string src_hw)

let test_tagset_basics () =
  check "empty is empty" true (Tagset.is_empty Tagset.empty);
  check "singleton not empty" false
    (Tagset.is_empty (Tagset.singleton sp src_user));
  check_int "cardinal of dup list" 2
    (Tagset.cardinal (Tagset.of_list sp [ src_user; src_file; src_user ]));
  check "mem present" true (Tagset.mem src_file
                              (Tagset.of_list sp [ src_user; src_file ]));
  check "mem absent" false (Tagset.mem src_hw (Tagset.singleton sp src_user))

let test_tagset_union () =
  let a = Tagset.of_list sp [ src_user; src_file ] in
  let b = Tagset.of_list sp [ src_file; src_bin ] in
  let u = Tagset.union sp a b in
  check_int "union cardinal" 3 (Tagset.cardinal u);
  check "union commutes" true (Tagset.equal u (Tagset.union sp b a));
  check "union idempotent" true (Tagset.equal a (Tagset.union sp a a))

let test_tagset_selectors () =
  let t = Tagset.of_list sp [ src_user; src_file; src_sock; src_bin; src_hw ] in
  Alcotest.(check (list string)) "binaries" [ "/bin/x" ] (Tagset.binaries t);
  Alcotest.(check (list string)) "files" [ "/data/a" ] (Tagset.files t);
  Alcotest.(check (list string)) "sockets" [ "evil:80" ] (Tagset.sockets t);
  check "user flag" true (Tagset.has_user_input t);
  check "hardware flag" true (Tagset.has_hardware t);
  check "no hardware in empty" false (Tagset.has_hardware Tagset.empty)

let test_tagset_filter_fold () =
  let t = Tagset.of_list sp [ src_user; src_file; src_bin ] in
  let only_named =
    Tagset.filter sp (fun s -> Source.resource_name s <> None) t
  in
  check_int "filter keeps named" 2 (Tagset.cardinal only_named);
  check_int "fold counts" 3 (Tagset.fold (fun _ n -> n + 1) t 0);
  check "exists finds binary" true
    (Tagset.exists (function Source.Binary _ -> true | _ -> false) t)

let kind = Alcotest.testable Origin.pp_kind Origin.equal_kind

let test_origin_empty () =
  Alcotest.check kind "empty is unknown" Origin.Unknown
    (Origin.classify ~trusted:no_trust Tagset.empty)

let test_origin_dominance () =
  let all = Tagset.of_list sp [ src_user; src_file; src_sock; src_bin; src_hw ] in
  Alcotest.check kind "socket dominates" (Origin.From_socket "evil:80")
    (Origin.classify ~trusted:no_trust all);
  let no_sock = Tagset.of_list sp [ src_user; src_file; src_bin; src_hw ] in
  Alcotest.check kind "binary next" (Origin.Hardcoded "/bin/x")
    (Origin.classify ~trusted:no_trust no_sock);
  let no_bin = Tagset.of_list sp [ src_user; src_file; src_hw ] in
  Alcotest.check kind "file next" (Origin.From_file "/data/a")
    (Origin.classify ~trusted:no_trust no_bin);
  let hw_user = Tagset.of_list sp [ src_user; src_hw ] in
  Alcotest.check kind "hardware before user" Origin.From_hardware
    (Origin.classify ~trusted:no_trust hw_user);
  Alcotest.check kind "user last" Origin.From_user
    (Origin.classify ~trusted:no_trust (Tagset.singleton sp src_user))

let test_origin_trust_filter () =
  let trusted = function
    | Source.Binary b -> String.equal b "/lib/libc.so"
    | _ -> false
  in
  let t = Tagset.of_list sp [ src_libc; src_user ] in
  Alcotest.check kind "trusted binary filtered" Origin.From_user
    (Origin.classify ~trusted t);
  Alcotest.check kind "only trusted -> unknown" Origin.Unknown
    (Origin.classify ~trusted (Tagset.singleton sp src_libc))

let test_origin_classify_all () =
  let t = Tagset.of_list sp [ src_bin; src_user; src_sock ] in
  check_int "three origins" 3
    (List.length (Origin.classify_all ~trusted:no_trust t));
  (match Origin.classify_all ~trusted:no_trust t with
   | Origin.From_socket _ :: Origin.Hardcoded _ :: Origin.From_user :: [] ->
     ()
   | _ -> Alcotest.fail "classify_all order wrong")

let test_origin_type_names () =
  check_str "user" "USER_INPUT" (Origin.kind_type_name Origin.From_user);
  check_str "socket" "SOCKET"
    (Origin.kind_type_name (Origin.From_socket "x"));
  check_str "binary" "BINARY" (Origin.kind_type_name (Origin.Hardcoded "x"));
  check_str "file" "FILE" (Origin.kind_type_name (Origin.From_file "x"));
  check_str "hardware" "HARDWARE"
    (Origin.kind_type_name Origin.From_hardware);
  check_str "unknown" "UNKNOWN" (Origin.kind_type_name Origin.Unknown)

let test_table2_combinations () =
  check_int "Table 2 has 11 rows" 11 (List.length Origin.combinations);
  (* USER_INPUT, BINARY and HARDWARE carry no resource id *)
  List.iter
    (fun ds ->
      check (ds ^ " has no origin") true
        (List.mem (ds, None) Origin.combinations))
    [ "USER_INPUT"; "BINARY"; "HARDWARE" ];
  (* FILE and SOCKET names may come from all four origins *)
  List.iter
    (fun ds ->
      List.iter
        (fun origin ->
          check
            (ds ^ " named by " ^ origin)
            true
            (List.mem (ds, Some origin) Origin.combinations))
        [ "USER_INPUT"; "FILE"; "SOCKET"; "BINARY" ])
    [ "FILE"; "SOCKET" ]

(* Two strategies must agree: the id-level union ([union_id], through
   the direct-mapped memo) and plain set union.  Random union sequences
   over small sets drawn from twelve sources intern enough distinct ids
   that pairs collide in the 256-slot memo.  Every result must hold
   exactly the union of its operands' sources, equal sets must have
   equal ids, and the node-level [union] must return the node of the
   id-level result. *)
let union_agrees_prop =
  let pool =
    Array.init 12 (fun i ->
        match i mod 3 with
        | 0 -> Source.File (Printf.sprintf "/f%d" i)
        | 1 -> Source.Socket (Printf.sprintf "h%d:80" i)
        | _ -> Source.Binary (Printf.sprintf "/bin/b%d" i))
  in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 24) (list_size (int_bound 4) (int_bound 11)))
        (list_size (int_range 1 300) (pair nat nat)))
  in
  QCheck.Test.make ~count:100 ~long_factor:10
    ~name:"tagset: id-level union agrees with set union" (QCheck.make gen)
    (fun (seeds, ops) ->
      let sp = Tagset.make_space () in
      let sources = Hashtbl.create 64 (* id -> its sorted sources *) in
      let by_set = Hashtbl.create 64 (* sorted sources -> id *) in
      let ids = Array.make (List.length seeds + List.length ops) 0 in
      let n = ref 0 in
      let note id expected =
        let got = Tagset.to_list (Tagset.of_id sp id) in
        if got <> expected then
          QCheck.Test.fail_reportf "id %d holds %d sources, expected %d" id
            (List.length got) (List.length expected);
        (match Hashtbl.find_opt by_set expected with
         | Some other when other <> id ->
           QCheck.Test.fail_reportf "one set has ids %d and %d" other id
         | _ -> Hashtbl.replace by_set expected id);
        Hashtbl.replace sources id expected;
        ids.(!n) <- id;
        incr n
      in
      List.iter
        (fun seed ->
          let l = List.map (fun i -> pool.(i)) seed in
          note
            (Tagset.id (Tagset.of_list sp l))
            (List.sort_uniq Source.compare l))
        seeds;
      List.iter
        (fun (i, j) ->
          let a = ids.(i mod !n) and b = ids.(j mod !n) in
          let r = Tagset.union_id sp a b in
          if
            not
              (Tagset.equal (Tagset.of_id sp r)
                 (Tagset.union sp (Tagset.of_id sp a) (Tagset.of_id sp b)))
          then
            QCheck.Test.fail_reportf "union and union_id differ on %d, %d" a
              b;
          note r
            (List.sort_uniq Source.compare
               (Hashtbl.find sources a @ Hashtbl.find sources b)))
        ops;
      true)

let suite =
  [ Alcotest.test_case "source equality" `Quick test_source_equal;
    Alcotest.test_case "source ordering" `Quick test_source_order;
    Alcotest.test_case "source names" `Quick test_source_names;
    Alcotest.test_case "source printing" `Quick test_source_pp;
    Alcotest.test_case "tagset basics" `Quick test_tagset_basics;
    Alcotest.test_case "tagset union" `Quick test_tagset_union;
    Alcotest.test_case "tagset selectors" `Quick test_tagset_selectors;
    Alcotest.test_case "tagset filter/fold" `Quick test_tagset_filter_fold;
    Alcotest.test_case "origin of empty" `Quick test_origin_empty;
    Alcotest.test_case "origin dominance" `Quick test_origin_dominance;
    Alcotest.test_case "origin trust filter" `Quick test_origin_trust_filter;
    Alcotest.test_case "origin classify_all" `Quick test_origin_classify_all;
    Alcotest.test_case "origin type names" `Quick test_origin_type_names;
    Alcotest.test_case "table 2 combinations" `Quick
      test_table2_combinations;
    QCheck_alcotest.to_alcotest union_agrees_prop ]
