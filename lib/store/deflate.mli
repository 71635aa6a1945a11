(** Raw DEFLATE (RFC 1951), self-contained — the toolchain ships no
    zlib binding, and segment compression must not grow a dependency.

    The encoder emits one fixed-Huffman block (BTYPE [01]) over a
    greedy LZ77 parse: 32 KiB window, hash-chained match search with a
    bounded chain walk, minimum match 3, maximum 258.  Everything is a
    pure function of the input bytes — no randomised heuristics — so
    compressed segments are byte-identical across runs and worker
    counts, which the store's determinism gate relies on.

    The decoder accepts stored (BTYPE [00]) and fixed-Huffman blocks;
    dynamic-Huffman blocks (BTYPE [10]) are rejected with an error —
    the store only ever reads its own output. *)

val compress : string -> string
(** [compress s] is the raw deflate stream for [s] (no zlib / gzip
    wrapper).  Deterministic.  The match-finder tables and output
    buffer are kept per domain and reused across calls (a systhread
    that finds them in use takes a private set); reuse never changes
    the output. *)

val set_headroom : int -> unit
(** [set_headroom k] moves the calling domain's table positions on (never
    back) so that the next {!compress} of more than [k] bytes refills
    the tables, a refill that otherwise comes once per 2 GiB a domain
    compresses.  Outputs do not change; the store suite uses it to
    compress on both sides of the refill. *)

val decompress : string -> (string, string) result
(** [decompress z] inflates a raw deflate stream.  Any malformation —
    truncation, bad symbol, distance past the output start — is an
    [Error] with a reason, never an exception. *)
