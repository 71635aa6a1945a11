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

type bw = { mutable acc : int; mutable nbits : int; out : Buffer.t }

let put bw v n =
  bw.acc <- bw.acc lor (v lsl bw.nbits);
  bw.nbits <- bw.nbits + n;
  while bw.nbits >= 8 do
    Buffer.add_char bw.out (Char.unsafe_chr (bw.acc land 0xff));
    bw.acc <- bw.acc lsr 8;
    bw.nbits <- bw.nbits - 8
  done

let win_size = 32768
let min_match = 3
let max_match = 258
let hash_size = 1 lsl 15
let max_chain = 64

(* The match finder's tables, kept per domain and reused by every call.
   [head] maps a 3-byte hash to its latest position; [prev] links a
   position to the previous one with the same hash, in a ring indexed by
   position mod [win_size].  Entries hold [base + position], and each
   call starts [base] past every value earlier calls stored, so a
   leftover entry reads as empty (below [base]) and no call refills the
   tables.  A ring slot is overwritten only by the position one window
   later, and by then the older position is out of range, so every
   chain the search follows is exact. *)
type tables = {
  head : int array;
  prev : int array;
  mutable base : int;
  out : Buffer.t;
  busy : bool Atomic.t;
}

let new_tables () =
  { head = Array.make hash_size (-1); prev = Array.make win_size (-1);
    base = 0; out = Buffer.create 4096; busy = Atomic.make false }

let tables_key = Domain.DLS.new_key new_tables

(* The domain's tables, or a private set while another systhread on the
   same domain is inside [compress]. *)
let take_tables () =
  let t = Domain.DLS.get tables_key in
  if Atomic.compare_and_set t.busy false true then t else new_tables ()

let compress s =
  let n = String.length s in
  let t = take_tables () in
  Fun.protect ~finally:(fun () -> Atomic.set t.busy false) @@ fun () ->
  if t.base > max_int - n then begin
    Array.fill t.head 0 hash_size (-1);
    Array.fill t.prev 0 win_size (-1);
    t.base <- 0
  end;
  let base = t.base and head = t.head and prev = t.prev in
  t.base <- base + n;
  let out = t.out in
  Buffer.clear out;
  let bw = { acc = 0; nbits = 0; out } in
  put bw 1 1 (* BFINAL *);
  put bw 1 2 (* BTYPE = 01, fixed Huffman *);
  let emit_lit c =
    let sym = Char.code c in
    put bw lit_code.(sym) lit_len.(sym)
  in
  let emit_match len dist =
    let sym = len_sym.(len) in
    put bw lit_code.(sym) lit_len.(sym);
    let eb = len_extra.(sym - 257) in
    if eb > 0 then put bw (len - len_base.(sym - 257)) eb;
    let dc = dist_code_of dist in
    put bw dist_rev.(dc) 5;
    let deb = dist_extra.(dc) in
    if deb > 0 then put bw (dist - dist_base.(dc)) deb
  in
  if n >= min_match then begin
    let hash i =
      (Char.code (String.unsafe_get s i) lsl 10)
      lxor (Char.code (String.unsafe_get s (i + 1)) lsl 5)
      lxor Char.code (String.unsafe_get s (i + 2))
      land (hash_size - 1)
    in
    let insert i =
      let h = hash i in
      prev.(i land (win_size - 1)) <- head.(h);
      head.(h) <- base + i
    in
    (* last position where a 3-byte hash still fits *)
    let last_hash = n - min_match in
    let i = ref 0 in
    while !i < n do
      if !i > last_hash then begin
        emit_lit (String.unsafe_get s !i);
        incr i
      end
      else begin
        let i0 = !i in
        let limit = min max_match (n - i0) in
        let best_len = ref 0 and best_dist = ref 0 in
        let cand = ref (head.(hash i0) - base) in
        let chain = ref max_chain in
        (* the nearest longest match, as a full walk would pick it: a
           candidate that differs at offset [best_len] cannot beat the
           best, and nothing beats a match of [limit] *)
        while
          !cand >= 0 && i0 - !cand <= win_size && !chain > 0
          && !best_len < limit
        do
          let c = !cand in
          if String.unsafe_get s (c + !best_len)
             = String.unsafe_get s (i0 + !best_len)
          then begin
            let l = ref 0 in
            while
              !l < limit
              && String.unsafe_get s (c + !l) = String.unsafe_get s (i0 + !l)
            do
              incr l
            done;
            if !l > !best_len then begin
              best_len := !l;
              best_dist := i0 - c
            end
          end;
          cand := prev.(c land (win_size - 1)) - base;
          decr chain
        done;
        if !best_len >= min_match then begin
          emit_match !best_len !best_dist;
          let stop = min (i0 + !best_len) (last_hash + 1) in
          for k = i0 to stop - 1 do
            insert k
          done;
          i := i0 + !best_len
        end
        else begin
          emit_lit (String.unsafe_get s i0);
          insert i0;
          incr i
        end
      end
    done
  end
  else String.iter emit_lit s;
  put bw lit_code.(256) lit_len.(256) (* end of block *);
  if bw.nbits > 0 then Buffer.add_char out (Char.unsafe_chr (bw.acc land 0xff));
  Buffer.contents out

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
