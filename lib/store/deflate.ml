(* Raw DEFLATE (RFC 1951) with fixed Huffman codes only.  See the mli
   for the design constraints (no dependencies, deterministic output).

   Bit order: the stream is LSB-first within each byte; Huffman codes
   are packed starting from their most significant bit, so code words
   are bit-reversed before entering the LSB-first writer. *)

let rev_bits v n =
  let r = ref 0 in
  for i = 0 to n - 1 do
    r := (!r lsl 1) lor ((v lsr i) land 1)
  done;
  !r

(* ------------------------------------------------------------------ *)
(* Fixed code tables (RFC 1951 §3.2.6)                                 *)

(* Literal/length alphabet, 288 symbols.  [lit_code] is pre-reversed
   for the LSB-first writer. *)
let lit_len =
  Array.init 288 (fun s ->
      if s < 144 then 8 else if s < 256 then 9 else if s < 280 then 7 else 8)

let lit_code =
  Array.init 288 (fun s ->
      let c =
        if s < 144 then 0x30 + s
        else if s < 256 then 0x190 + (s - 144)
        else if s < 280 then s - 256
        else 0xc0 + (s - 280)
      in
      rev_bits c lit_len.(s))

(* Length symbols 257..285: (base length, extra bits). *)
let len_base =
  [| 3; 4; 5; 6; 7; 8; 9; 10; 11; 13; 15; 17; 19; 23; 27; 31; 35; 43; 51;
     59; 67; 83; 99; 115; 131; 163; 195; 227; 258 |]

let len_extra =
  [| 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 3; 4; 4; 4;
     4; 5; 5; 5; 5; 0 |]

(* Distance symbols 0..29: (base distance, extra bits). *)
let dist_base =
  [| 1; 2; 3; 4; 5; 7; 9; 13; 17; 25; 33; 49; 65; 97; 129; 193; 257; 385;
     513; 769; 1025; 1537; 2049; 3073; 4097; 6145; 8193; 12289; 16385;
     24577 |]

let dist_extra =
  [| 0; 0; 0; 0; 1; 1; 2; 2; 3; 3; 4; 4; 5; 5; 6; 6; 7; 7; 8; 8; 9; 9; 10;
     10; 11; 11; 12; 12; 13; 13 |]

(* length -> symbol lookup, filled in increasing symbol order so the
   dedicated symbol 285 overwrites 284's formula range at length 258. *)
let len_sym = Array.make 259 0

let () =
  for i = 0 to 28 do
    let lo = len_base.(i) in
    let hi = min 258 (lo + (1 lsl len_extra.(i)) - 1) in
    for l = lo to hi do
      len_sym.(l) <- 257 + i
    done
  done

let dist_sym d =
  let c = ref 29 in
  while dist_base.(!c) > d do
    decr c
  done;
  !c

(* distance -> symbol in one lookup (zlib's layout): distances up to
   256 index directly; above that every symbol's range starts at
   128k + 1, so one entry per 128-distance block suffices. *)
let dist_code =
  Array.init 512 (fun k ->
      if k < 256 then dist_sym (k + 1) else dist_sym (((k - 256) lsl 7) + 1))

let dist_code_of d =
  if d <= 256 then dist_code.(d - 1) else dist_code.(256 + ((d - 1) lsr 7))

(* 5-bit distance codes, pre-reversed for the LSB-first writer *)
let dist_rev = Array.init 30 (fun c -> rev_bits c 5)

(* ------------------------------------------------------------------ *)
(* Encoder                                                             *)

let win_size = 32768
let min_match = 3
let max_match = 258
let hash_size = 1 lsl 15
let max_chain = 64

(* Unchecked 32- and 64-bit loads and stores; every index below is in
   range by construction (the comments at each use say why). *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"
external str64u : string -> int -> int64 = "%caml_string_get64u"

(* The match finder's tables, kept per domain and reused by every call,
   as arrays of 32-bit entries in [Bytes] (128 KiB each, half what
   OCaml ints take, and never scanned by the GC).  [head] maps a 3-byte
   hash to its latest position; [prev] links a position to the previous
   one with the same hash, in a ring indexed by position mod
   [win_size].  Entries hold [base + position], and each call starts
   [base] past every value earlier calls stored, so a leftover entry
   reads as empty (below [base]) and no call refills the tables; when
   [base] would pass the 32-bit range, one call refills them with -1
   and starts again at 0.  A ring slot is overwritten only by the
   position one window later, and by then the older position is out of
   range, so every chain the search follows is exact (for inputs under
   2 GiB; past that a position finds no match).

   The bit writer lives in the same record: bits collect LSB-first in
   [acc] ([nbits] of them, fewer than 32 between symbols) and leave 32
   at a time, little-endian, into [out] at [op]. *)
type tables = {
  head : Bytes.t;
  prev : Bytes.t;
  mutable base : int;
  mutable out : Bytes.t;
  mutable op : int;
  mutable acc : int;
  mutable nbits : int;
  busy : bool Atomic.t;
}

let max_entry = 0x7fff_ffff

let new_tables () =
  { head = Bytes.make (4 * hash_size) '\xff';
    prev = Bytes.make (4 * win_size) '\xff'; base = 0;
    out = Bytes.create 4096; op = 0; acc = 0; nbits = 0;
    busy = Atomic.make false }

let tables_key = Domain.DLS.new_key new_tables

let set_headroom k =
  let t = Domain.DLS.get tables_key in
  if max_entry - k > t.base then t.base <- max_entry - k

(* The domain's tables, or a private set while another systhread on the
   same domain is inside [compress]. *)
let take_tables () =
  let t = Domain.DLS.get tables_key in
  if Atomic.compare_and_set t.busy false true then t else new_tables ()

let[@inline] imin (a : int) b = if a < b then a else b

(* entry [k] of a table, [k] a hash or a position mod [win_size]; -1
   (empty) sign-extends *)
let[@inline] entry b k = Int32.to_int (get32u b (k lsl 2))
let[@inline] set_entry b k v = set32u b (k lsl 2) (Int32.of_int v)

let[@inline] hash s i =
  (Char.code (String.unsafe_get s i) lsl 10)
  lxor (Char.code (String.unsafe_get s (i + 1)) lsl 5)
  lxor Char.code (String.unsafe_get s (i + 2))
  land (hash_size - 1)

(* [i] with hash [h] becomes the head of its chain *)
let[@inline] insert head prev base h i =
  set_entry prev (i land (win_size - 1)) (entry head h);
  set_entry head h (base + i)

(* Append the [n] low bits of [v] ([n <= 31]): [acc] then holds at most
   62 bits, and a full 32-bit word leaves at once.  [out] has room for
   the whole stream plus one word (see [compress]). *)
let[@inline] put t v n =
  let acc = t.acc lor (v lsl t.nbits) and nbits = t.nbits + n in
  if nbits >= 32 then begin
    let w = Int32.of_int acc in
    set32u t.out t.op (if Sys.big_endian then swap32 w else w);
    t.op <- t.op + 4;
    t.acc <- acc lsr 32;
    t.nbits <- nbits - 32
  end
  else begin
    t.acc <- acc;
    t.nbits <- nbits
  end

let[@inline] emit_lit t c =
  put t (Array.unsafe_get lit_code c) (Array.unsafe_get lit_len c)

(* A match is one [put]: length code, its extra bits, distance code and
   its extra bits, at most 8 + 5 + 5 + 13 = 31 bits. *)
let emit_match t len dist =
  let sym = len_sym.(len) in
  let ls = lit_len.(sym) and le = len_extra.(sym - 257) in
  let dc = dist_code_of dist in
  put t
    (lit_code.(sym)
    lor ((len - len_base.(sym - 257)) lsl ls)
    lor ((dist_rev.(dc) lor ((dist - dist_base.(dc)) lsl 5)) lsl (ls + le)))
    (ls + le + 5 + dist_extra.(dc))

(* Length of the common prefix of [s] at [c] and [i], at most [limit],
   eight bytes at a time while eight remain ([i + limit <= length s]
   and [c < i]). *)
let[@inline] match_len s c i limit =
  let l = ref 0 in
  while !l + 8 <= limit && (str64u s (c + !l) : int64) = str64u s (i + !l) do
    l := !l + 8
  done;
  while !l < limit && String.unsafe_get s (c + !l) = String.unsafe_get s (i + !l)
  do
    incr l
  done;
  !l

let compress s =
  let n = String.length s in
  let t = take_tables () in
  Fun.protect ~finally:(fun () -> Atomic.set t.busy false) @@ fun () ->
  if t.base > max_entry - n then begin
    Bytes.fill t.head 0 (Bytes.length t.head) '\xff';
    Bytes.fill t.prev 0 (Bytes.length t.prev) '\xff';
    t.base <- 0
  end;
  (* a literal costs at most 9 bits and a match of [l >= 3] bytes at
     most 31, so the stream is under 11 bits per input byte, plus the
     3-bit header, the 7-bit end code and the last word's slack *)
  let room = n + (n / 2) + 16 in
  if Bytes.length t.out < room then t.out <- Bytes.create room;
  t.op <- 0;
  t.acc <- 0;
  t.nbits <- 0;
  put t 3 3 (* BFINAL = 1, BTYPE = 01 (fixed Huffman) *);
  let base = t.base and head = t.head and prev = t.prev in
  t.base <- base + n;
  (* last position where a 3-byte hash still fits *)
  let last_hash = n - min_match in
  let i = ref 0 in
  while !i <= last_hash do
    let i0 = !i in
    let h = hash s i0 in
    let limit = imin max_match (n - i0) in
    let best_len = ref 0 and best_dist = ref 0 in
    let cand = ref (entry head h - base) in
    let chain = ref max_chain in
    (* the nearest longest match, as a full walk would pick it: a
       candidate that differs at offset [best_len] cannot beat the
       best, and nothing beats a match of [limit] *)
    while
      !cand >= 0 && i0 - !cand <= win_size && !chain > 0 && !best_len < limit
    do
      let c = !cand in
      if String.unsafe_get s (c + !best_len) = String.unsafe_get s (i0 + !best_len)
      then begin
        let l = match_len s c i0 limit in
        if l > !best_len then begin
          best_len := l;
          best_dist := i0 - c
        end
      end;
      cand := entry prev (c land (win_size - 1)) - base;
      decr chain
    done;
    insert head prev base h i0;
    if !best_len >= min_match then begin
      emit_match t !best_len !best_dist;
      (* the positions the match covers, each hash rolled from the
         previous one: shifting out the oldest byte's bits and xoring
         in the newest is [hash s k] *)
      let h = ref h in
      for k = i0 + 1 to imin (i0 + !best_len) (last_hash + 1) - 1 do
        h :=
          ((!h lsl 5) lxor Char.code (String.unsafe_get s (k + 2)))
          land (hash_size - 1);
        insert head prev base !h k
      done;
      i := i0 + !best_len
    end
    else begin
      emit_lit t (Char.code (String.unsafe_get s i0));
      incr i
    end
  done;
  for k = !i to n - 1 do
    emit_lit t (Char.code (String.unsafe_get s k))
  done;
  put t lit_code.(256) lit_len.(256) (* end of block *);
  while t.nbits > 0 do
    Bytes.unsafe_set t.out t.op (Char.unsafe_chr (t.acc land 0xff));
    t.op <- t.op + 1;
    t.acc <- t.acc lsr 8;
    t.nbits <- t.nbits - 8
  done;
  Bytes.sub_string t.out 0 t.op

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)

exception Bad of string

type br = {
  src : string;
  mutable pos : int;
  mutable racc : int;
  mutable rbits : int;
}

let fill br n =
  while br.rbits < n do
    if br.pos >= String.length br.src then raise (Bad "truncated stream");
    br.racc <- br.racc lor (Char.code (String.unsafe_get br.src br.pos) lsl br.rbits);
    br.pos <- br.pos + 1;
    br.rbits <- br.rbits + 8
  done

let bits br n =
  fill br n;
  let v = br.racc land ((1 lsl n) - 1) in
  br.racc <- br.racc lsr n;
  br.rbits <- br.rbits - n;
  v

(* Accumulate one more MSB-first code bit. *)
let code_bit br code = (code lsl 1) lor bits br 1

(* Fixed literal/length decode by canonical code ranges: 7-bit codes
   0..23 are 256..279; 8-bit 48..191 are 0..143 and 192..199 are
   280..287; 9-bit 400..511 are 144..255. *)
let fixed_lit br =
  let v = ref 0 in
  for _ = 1 to 7 do
    v := code_bit br !v
  done;
  if !v <= 23 then 256 + !v
  else begin
    v := code_bit br !v;
    if !v >= 48 && !v <= 191 then !v - 48
    else if !v >= 192 && !v <= 199 then 280 + (!v - 192)
    else begin
      v := code_bit br !v;
      if !v >= 400 && !v <= 511 then 144 + (!v - 400)
      else raise (Bad "bad literal/length code")
    end
  end

let fixed_dist br =
  let v = ref 0 in
  for _ = 1 to 5 do
    v := code_bit br !v
  done;
  if !v > 29 then raise (Bad "bad distance code");
  !v

let decompress z =
  let br = { src = z; pos = 0; racc = 0; rbits = 0 } in
  let out = Buffer.create (String.length z * 4) in
  try
    let final = ref false in
    while not !final do
      final := bits br 1 = 1;
      match bits br 2 with
      | 0 ->
        (* stored: skip to byte boundary, LEN/NLEN, raw copy *)
        br.racc <- 0;
        br.rbits <- 0;
        if br.pos + 4 > String.length z then
          raise (Bad "truncated stored header");
        let len = Char.code z.[br.pos] lor (Char.code z.[br.pos + 1] lsl 8) in
        let nlen =
          Char.code z.[br.pos + 2] lor (Char.code z.[br.pos + 3] lsl 8)
        in
        if len lxor 0xffff <> nlen then raise (Bad "stored length mismatch");
        br.pos <- br.pos + 4;
        if br.pos + len > String.length z then
          raise (Bad "truncated stored block");
        Buffer.add_substring out z br.pos len;
        br.pos <- br.pos + len
      | 1 ->
        let stop = ref false in
        while not !stop do
          let sym = fixed_lit br in
          if sym < 256 then Buffer.add_char out (Char.unsafe_chr sym)
          else if sym = 256 then stop := true
          else if sym > 285 then raise (Bad "bad length symbol")
          else begin
            let i = sym - 257 in
            let len =
              len_base.(i)
              + if len_extra.(i) > 0 then bits br len_extra.(i) else 0
            in
            let d = fixed_dist br in
            let dist =
              dist_base.(d)
              + if dist_extra.(d) > 0 then bits br dist_extra.(d) else 0
            in
            let here = Buffer.length out in
            if dist > here then raise (Bad "distance past output start");
            (* byte-wise copy: overlapped matches replicate correctly *)
            for k = 0 to len - 1 do
              Buffer.add_char out (Buffer.nth out (here - dist + k))
            done
          end
        done
      | 2 -> raise (Bad "dynamic Huffman blocks unsupported")
      | _ -> raise (Bad "invalid block type")
    done;
    Ok (Buffer.contents out)
  with Bad reason -> Error reason
