/* AES-NI kernel for the fixed-key correlation-robust label hash

     H(x, t) = pi(x') XOR x',   x' = (hi << 1 XOR t, lo << 1 XOR ~t)

   where pi is AES-128 under the fixed key schedule handed over by
   [Label_hash] at module initialization (the schedule [Aes128] expands
   and checks against FIPS-197). A label is 16 bytes in a [Bytes] plane:
   [hi] as a native int64 at offset 0, [lo] at offset 8. The AES block is
   the big-endian bytes of [hi'] followed by those of [lo'], exactly as
   [Aes128.label_hash_bytes] builds it, so both kernels are bit-identical.

   One call hashes the 2 (evaluator) or 4 (garbler) independent blocks of
   a half-gates AND gate with their [aesenc] rounds interleaved, so the
   pipelined AES unit overlaps them.

   Every entry point is [noalloc]: the native stubs take untagged ints
   and never touch the OCaml heap beyond the byte planes passed in.
   Callers bounds-check nothing here — [Garbling] sizes its planes from
   the circuit before the loop. The intrinsics compile under per-function
   [target] attributes, so the file needs no -maes flag and the rest of
   the program stays runnable on CPUs without AES-NI; [Label_hash] only
   calls the hash stubs after [secyan_aesni_init] reported support. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/fail.h>

#if defined(__x86_64__)

#include <cpuid.h>
#include <immintrin.h>

#define KERNEL __attribute__((target("aes,ssse3")))
#define KERNEL_INLINE static inline __attribute__((target("aes,ssse3"), always_inline))

static __m128i round_keys[11];
static int aesni_ready = 0;

/* Byte-reverse each 64-bit lane: native int64 <-> big-endian bytes. */
KERNEL_INLINE __m128i bswap64x2(__m128i v)
{
  const __m128i rev = _mm_set_epi8(8, 9, 10, 11, 12, 13, 14, 15,
                                   0, 1, 2, 3, 4, 5, 6, 7);
  return _mm_shuffle_epi8(v, rev);
}

/* The tweak lanes: [t] XORed into [hi], [~t] into [lo]. */
KERNEL_INLINE __m128i tweak_lanes(intnat t)
{
  return _mm_set_epi64x((long long)~t, (long long)t);
}

/* x' in AES byte order, from a label in plane layout. */
KERNEL_INLINE __m128i shifted(__m128i label, __m128i tw)
{
  return bswap64x2(_mm_xor_si128(_mm_slli_epi64(label, 1), tw));
}

/* [t + 1] with OCaml's 63-bit wrap-around, so the second half gate's
   tweak matches [tweak + 1] computed in OCaml for every int. */
KERNEL_INLINE intnat next_tweak(intnat t)
{
  return (intnat)((uintnat)(t + 1) << 1) >> 1;
}

KERNEL_INLINE __m128i load(const unsigned char *p)
{
  return _mm_loadu_si128((const __m128i *)p);
}

/* pi(x') XOR x', back in plane layout. */
KERNEL_INLINE void store(unsigned char *p, __m128i enc, __m128i x)
{
  _mm_storeu_si128((__m128i *)p, bswap64x2(_mm_xor_si128(enc, x)));
}

KERNEL_INLINE __m128i encrypt1(__m128i x)
{
  __m128i b = _mm_xor_si128(x, round_keys[0]);
  for (int r = 1; r < 10; r++) b = _mm_aesenc_si128(b, round_keys[r]);
  return _mm_aesenclast_si128(b, round_keys[10]);
}

KERNEL static void hash1(intnat t, const unsigned char *src, unsigned char *dst)
{
  __m128i x = shifted(load(src), tweak_lanes(t));
  store(dst, encrypt1(x), x);
}

/* dst[0,16) = H(a, t), dst[16,32) = H(b, t + 1). */
KERNEL static void hash2(const unsigned char *a, const unsigned char *b, intnat t,
                         unsigned char *dst)
{
  __m128i x0 = shifted(load(a), tweak_lanes(t));
  __m128i x1 = shifted(load(b), tweak_lanes(next_tweak(t)));
  __m128i b0 = _mm_xor_si128(x0, round_keys[0]);
  __m128i b1 = _mm_xor_si128(x1, round_keys[0]);
  for (int r = 1; r < 10; r++) {
    b0 = _mm_aesenc_si128(b0, round_keys[r]);
    b1 = _mm_aesenc_si128(b1, round_keys[r]);
  }
  b0 = _mm_aesenclast_si128(b0, round_keys[10]);
  b1 = _mm_aesenclast_si128(b1, round_keys[10]);
  store(dst, b0, x0);
  store(dst + 16, b1, x1);
}

/* dst[0,16) = H(a, t), dst[16,32) = H(a ^ delta, t),
   dst[32,48) = H(b, t + 1), dst[48,64) = H(b ^ delta, t + 1),
   with delta read from dst[64,80). */
KERNEL static void hash4(const unsigned char *a, const unsigned char *b, intnat t,
                         unsigned char *dst)
{
  __m128i delta = load(dst + 64);
  __m128i ta = tweak_lanes(t), tb = tweak_lanes(next_tweak(t));
  __m128i la = load(a), lb = load(b);
  __m128i x0 = shifted(la, ta);
  __m128i x1 = shifted(_mm_xor_si128(la, delta), ta);
  __m128i x2 = shifted(lb, tb);
  __m128i x3 = shifted(_mm_xor_si128(lb, delta), tb);
  __m128i b0 = _mm_xor_si128(x0, round_keys[0]);
  __m128i b1 = _mm_xor_si128(x1, round_keys[0]);
  __m128i b2 = _mm_xor_si128(x2, round_keys[0]);
  __m128i b3 = _mm_xor_si128(x3, round_keys[0]);
  for (int r = 1; r < 10; r++) {
    __m128i k = round_keys[r];
    b0 = _mm_aesenc_si128(b0, k);
    b1 = _mm_aesenc_si128(b1, k);
    b2 = _mm_aesenc_si128(b2, k);
    b3 = _mm_aesenc_si128(b3, k);
  }
  b0 = _mm_aesenclast_si128(b0, round_keys[10]);
  b1 = _mm_aesenclast_si128(b1, round_keys[10]);
  b2 = _mm_aesenclast_si128(b2, round_keys[10]);
  b3 = _mm_aesenclast_si128(b3, round_keys[10]);
  store(dst, b0, x0);
  store(dst + 16, b1, x1);
  store(dst + 32, b2, x2);
  store(dst + 48, b3, x3);
}

static int cpu_has_aesni(void)
{
  unsigned int eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return 0;
  return (ecx & bit_AES) != 0 && (ecx & bit_SSSE3) != 0;
}

#endif

/* Probe CPUID; on support, load the 176-byte expanded schedule (round
   keys 0..10 in FIPS byte order). Returns 1 when the kernel is usable,
   0 when the CPU lacks AES-NI or SSSE3, -1 on a non-x86-64 build. */
value secyan_aesni_init(value schedule)
{
#if defined(__x86_64__)
  if (!aesni_ready && cpu_has_aesni()) {
    if (caml_string_length(schedule) != sizeof round_keys)
      caml_invalid_argument("Label_hash: expanded AES schedule must be 176 bytes");
    memcpy(round_keys, Bytes_val(schedule), sizeof round_keys);
    aesni_ready = 1;
  }
  return Val_int(aesni_ready);
#else
  (void)schedule;
  return Val_int(-1);
#endif
}

/* Native entry points. Off x86-64 they are empty: [Label_hash] never
   calls a kernel that [secyan_aesni_init] refused. */

void secyan_aesni_hash1(intnat t, value src, intnat soff, value dst, intnat doff)
{
#if defined(__x86_64__)
  hash1(t, Bytes_val(src) + soff, Bytes_val(dst) + doff);
#else
  (void)t; (void)src; (void)soff; (void)dst; (void)doff;
#endif
}

void secyan_aesni_hash2(value src, intnat a, intnat b, intnat t, value dst)
{
#if defined(__x86_64__)
  hash2(Bytes_val(src) + a, Bytes_val(src) + b, t, Bytes_val(dst));
#else
  (void)src; (void)a; (void)b; (void)t; (void)dst;
#endif
}

void secyan_aesni_hash4(value src, intnat a, intnat b, intnat t, value dst)
{
#if defined(__x86_64__)
  hash4(Bytes_val(src) + a, Bytes_val(src) + b, t, Bytes_val(dst));
#else
  (void)src; (void)a; (void)b; (void)t; (void)dst;
#endif
}

/* Bytecode entry points: tagged arguments, same kernels. */

value secyan_aesni_hash1_byte(value t, value src, value soff, value dst, value doff)
{
  secyan_aesni_hash1(Long_val(t), src, Long_val(soff), dst, Long_val(doff));
  return Val_unit;
}

value secyan_aesni_hash2_byte(value src, value a, value b, value t, value dst)
{
  secyan_aesni_hash2(src, Long_val(a), Long_val(b), Long_val(t), dst);
  return Val_unit;
}

value secyan_aesni_hash4_byte(value src, value a, value b, value t, value dst)
{
  secyan_aesni_hash4(src, Long_val(a), Long_val(b), Long_val(t), dst);
  return Val_unit;
}
