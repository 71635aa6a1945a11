type thresholds = {
  rare_frequency : int;
  long_time : int;
  clone_count_low : int;
  clone_rate_medium : int;
  alloc_low : int;
  alloc_medium : int;
}

let thresholds =
  { rare_frequency = 2; long_time = 2000; clone_count_low = 8;
    clone_rate_medium = 6; alloc_low = 0x4000; alloc_medium = 0x10000 }

type t = {
  trust : Trust.t;
  warn : Warning.t -> unit;
}

let rarely_executed ~freq ~time =
  freq > 0 && freq < thresholds.rare_frequency && time > thresholds.long_time
