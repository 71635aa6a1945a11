(* The reference encoder for [Store.Deflate.compress]: the greedy,
   hash-chained, fixed-Huffman encoder written plainly, one out-of-line
   step at a time, with fresh match tables per call.  [Store.Deflate]
   must produce these bytes for every input; the store suite checks it
   with a property, as the vm suite checks paged memory against a flat
   [Bytes] model.

   The parse: a 32 KiB window, a 3-byte hash into 32,768 chain heads,
   at most 64 chain steps per position, and the nearest longest match
   of 3 to 258 bytes, taken greedily.  The code: one fixed-Huffman block
   (RFC 1951 §3.2.6), bits packed LSB-first with Huffman codes
   bit-reversed. *)

let rev_bits v n =
  let r = ref 0 in
  for i = 0 to n - 1 do
    r := (!r lsl 1) lor ((v lsr i) land 1)
  done;
  !r

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

let len_base =
  [| 3; 4; 5; 6; 7; 8; 9; 10; 11; 13; 15; 17; 19; 23; 27; 31; 35; 43; 51;
     59; 67; 83; 99; 115; 131; 163; 195; 227; 258 |]

let len_extra =
  [| 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 3; 4; 4; 4;
     4; 5; 5; 5; 5; 0 |]

let dist_base =
  [| 1; 2; 3; 4; 5; 7; 9; 13; 17; 25; 33; 49; 65; 97; 129; 193; 257; 385;
     513; 769; 1025; 1537; 2049; 3073; 4097; 6145; 8193; 12289; 16385;
     24577 |]

let dist_extra =
  [| 0; 0; 0; 0; 1; 1; 2; 2; 3; 3; 4; 4; 5; 5; 6; 6; 7; 7; 8; 8; 9; 9; 10;
     10; 11; 11; 12; 12; 13; 13 |]

(* the largest symbol whose base is at most [l]; 285 owns length 258 *)
let len_sym l =
  let c = ref 28 in
  while len_base.(!c) > l do
    decr c
  done;
  257 + !c

let dist_sym d =
  let c = ref 29 in
  while dist_base.(!c) > d do
    decr c
  done;
  !c

let win_size = 32768
let min_match = 3
let max_match = 258
let hash_size = 1 lsl 15
let max_chain = 64

type bw = { mutable acc : int; mutable nbits : int; out : Buffer.t }

let put bw v n =
  bw.acc <- bw.acc lor (v lsl bw.nbits);
  bw.nbits <- bw.nbits + n;
  while bw.nbits >= 8 do
    Buffer.add_char bw.out (Char.unsafe_chr (bw.acc land 0xff));
    bw.acc <- bw.acc lsr 8;
    bw.nbits <- bw.nbits - 8
  done

let compress s =
  let n = String.length s in
  let head = Array.make hash_size (-1) and prev = Array.make win_size (-1) in
  let bw = { acc = 0; nbits = 0; out = Buffer.create 4096 } in
  put bw 1 1 (* BFINAL *);
  put bw 1 2 (* BTYPE = 01, fixed Huffman *);
  let emit_lit c =
    let sym = Char.code c in
    put bw lit_code.(sym) lit_len.(sym)
  in
  let emit_match len dist =
    let sym = len_sym len in
    put bw lit_code.(sym) lit_len.(sym);
    let eb = len_extra.(sym - 257) in
    if eb > 0 then put bw (len - len_base.(sym - 257)) eb;
    let dc = dist_sym dist in
    put bw (rev_bits dc 5) 5;
    let deb = dist_extra.(dc) in
    if deb > 0 then put bw (dist - dist_base.(dc)) deb
  in
  let hash i =
    (Char.code s.[i] lsl 10)
    lxor (Char.code s.[i + 1] lsl 5)
    lxor Char.code s.[i + 2]
    land (hash_size - 1)
  in
  let insert i =
    let h = hash i in
    prev.(i land (win_size - 1)) <- head.(h);
    head.(h) <- i
  in
  let last_hash = n - min_match in
  let i = ref 0 in
  while !i < n do
    if !i > last_hash then begin
      emit_lit s.[!i];
      incr i
    end
    else begin
      let i0 = !i in
      let limit = min max_match (n - i0) in
      let best_len = ref 0 and best_dist = ref 0 in
      let cand = ref head.(hash i0) in
      let chain = ref max_chain in
      (* every candidate in the window, nearest first, until the budget
         is spent or a match of [limit] is found; only a strictly longer
         match replaces the best *)
      while
        !cand >= 0 && i0 - !cand <= win_size && !chain > 0
        && !best_len < limit
      do
        let c = !cand in
        let l = ref 0 in
        while !l < limit && s.[c + !l] = s.[i0 + !l] do
          incr l
        done;
        if !l > !best_len then begin
          best_len := !l;
          best_dist := i0 - c
        end;
        cand := prev.(c land (win_size - 1));
        decr chain
      done;
      if !best_len >= min_match then begin
        emit_match !best_len !best_dist;
        for k = i0 to min (i0 + !best_len) (last_hash + 1) - 1 do
          insert k
        done;
        i := i0 + !best_len
      end
      else begin
        emit_lit s.[i0];
        insert i0;
        incr i
      end
    end
  done;
  put bw lit_code.(256) lit_len.(256) (* end of block *);
  if bw.nbits > 0 then
    Buffer.add_char bw.out (Char.unsafe_chr (bw.acc land 0xff));
  Buffer.contents bw.out
