"""Multi-pseudo-band two-stream radiation ("RRTMG-lite").

A band-looped two-stream scheme with water-vapour, cloud and background
(CO2-like) absorbers.  It is deliberately structured like RRTMG — an
outer loop over spectral pseudo-bands, each with its own absorption
coefficients, and sequential up/down sweeps through the column — because
the *computational* contrast with the ML radiation module matters for the
paper's Fig. 10 discussion ("ML diagnosed surface radiation requires
approximately twice the number of FLOPS ... However, it can achieve peak
FLOPS ranging from 74% to 84% ... a significant improvement over the 6%
in RRTMG").

Outputs: layer heating rates plus the two surface diagnostics the land
model consumes — downward shortwave ``gsw`` and longwave ``glw`` — the
exact variables the ML radiation diagnostic module learns (section 3.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import CP_DRY, GRAVITY, SOLAR_CONSTANT, STEFAN_BOLTZMANN


@dataclass
class RadiationResult:
    heating_rate: np.ndarray   # (nc, nlev) K/s
    gsw: np.ndarray            # (nc,) downward SW at surface, W/m^2
    glw: np.ndarray            # (nc,) downward LW at surface, W/m^2
    olr: np.ndarray            # (nc,) outgoing LW at top, W/m^2
    flops_estimate: float = 0.0


def _level_major(a: np.ndarray) -> np.ndarray:
    """``a`` transposed into a new contiguous array.  The sweeps take
    (nc, nlev) fields as level-major (nlev, nc), each level one
    contiguous row, and the heating back to (nc, nlev)."""
    return np.ascontiguousarray(a.T)


@dataclass
class RadiationScheme:
    """Two-stream pseudo-band radiative transfer.

    ``n_sw_bands``/``n_lw_bands`` control the cost/fidelity trade-off
    (RRTMG uses 14/16; the default 6/8 keeps columns cheap while
    preserving the band-loop structure).
    """

    n_sw_bands: int = 6
    n_lw_bands: int = 8
    #: Mass absorption coefficients per band [m^2/kg], spread over decades
    #: like real k-distributions.
    k_sw_vapor: np.ndarray = None
    k_lw_vapor: np.ndarray = None
    k_lw_background: float = 1.2e-4
    k_cloud_sw: float = 60.0
    k_cloud_lw: float = 80.0
    sw_band_weights: np.ndarray = None
    lw_band_weights: np.ndarray = None

    def __post_init__(self) -> None:
        if self.k_sw_vapor is None:
            self.k_sw_vapor = np.logspace(-4.2, -1.2, self.n_sw_bands)
        if self.k_lw_vapor is None:
            self.k_lw_vapor = np.logspace(-3.2, 0.2, self.n_lw_bands)
        if self.sw_band_weights is None:
            w = np.linspace(2.0, 0.6, self.n_sw_bands)
            self.sw_band_weights = w / w.sum()
        if self.lw_band_weights is None:
            w = np.linspace(1.0, 1.4, self.n_lw_bands)
            self.lw_band_weights = w / w.sum()

    def compute(
        self,
        temp: np.ndarray,        # (nc, nlev)
        qv: np.ndarray,          # (nc, nlev)
        qc: np.ndarray,          # (nc, nlev)
        dpi: np.ndarray,         # (nc, nlev)
        tskin: np.ndarray,       # (nc,)
        coszen: np.ndarray,      # (nc,) cosine solar zenith angle
        albedo: np.ndarray,      # (nc,)
    ) -> RadiationResult:
        nc, nlev = temp.shape
        # Column water paths per layer [kg/m^2].
        wpath = _level_major(qv * dpi / GRAVITY)
        cpath = _level_major(qc * dpi / GRAVITY)
        mpath = _level_major(dpi / GRAVITY)

        # ---- Shortwave: band-looped Beer-Lambert with surface reflection.
        mu = np.clip(coszen, 0.0, 1.0)
        sw_abs = np.zeros((nlev, nc))
        gsw = np.zeros(nc)
        toa = SOLAR_CONSTANT * mu
        top = np.ones((1, nc))
        trans_sw = []
        for b in range(self.n_sw_bands):
            tau = self.k_sw_vapor[b] * wpath + self.k_cloud_sw * cpath
            # slant path; avoid division by zero at night
            slant = tau / np.maximum(mu, 0.05)
            trans = np.exp(-slant)
            trans_sw.append(trans)       # the reflected pass reuses it
            cum_down = np.cumprod(trans, axis=0)
            f_in = toa * self.sw_band_weights[b]
            down_int = np.concatenate([top, cum_down]) * f_in
            absorbed = down_int[:-1] - down_int[1:]
            sw_abs += absorbed
            gsw += down_int[-1]
        # One reflected pass (absorbed on the way up, remainder escapes).
        for b, trans in enumerate(trans_sw):
            f_up = albedo * gsw * self.sw_band_weights[b]
            cum_up = np.cumprod(trans[::-1], axis=0)
            up_int = np.concatenate([top, cum_up]) * f_up
            sw_abs += (up_int[:-1] - up_int[1:])[::-1]

        # ---- Longwave: band-looped emissivity sweeps.
        lw_net = np.zeros((nlev + 1, nc))   # net upward flux at interfaces
        glw = np.zeros(nc)
        olr = np.zeros(nc)
        planck_layer = _level_major(STEFAN_BOLTZMANN * temp**4)
        planck_sfc = STEFAN_BOLTZMANN * tskin**4
        down = np.empty((nlev + 1, nc))
        up = np.empty((nlev + 1, nc))
        for b in range(self.n_lw_bands):
            tau = (
                self.k_lw_vapor[b] * wpath
                + self.k_cloud_lw * cpath
                + self.k_lw_background * mpath
            )
            # Diffusivity-factor transmission per layer.
            trans = np.exp(-1.66 * tau)
            emis = 1.0 - trans
            source = emis * planck_layer
            wb = self.lw_band_weights[b]
            # Downward sweep (top interface flux = 0).
            down[0] = 0.0
            for k in range(nlev):
                np.multiply(down[k], trans[k], out=down[k + 1])
                down[k + 1] += source[k]
            # Upward sweep (surface emits).
            up[nlev] = planck_sfc
            for k in range(nlev - 1, -1, -1):
                np.multiply(up[k + 1], trans[k], out=up[k])
                up[k] += source[k]
            glw += wb * down[-1]
            olr += wb * up[0]
            lw_net += wb * (up - down)

        # Heating: SW absorption minus LW net-flux divergence.
        lw_heat = -(lw_net[:-1] - lw_net[1:])   # W/m^2 per layer
        heating = _level_major(sw_abs + lw_heat) * GRAVITY / (CP_DRY * dpi)
        nbands = self.n_sw_bands + self.n_lw_bands
        flops = float(nc * nlev * nbands * 40)
        return RadiationResult(
            heating_rate=heating, gsw=gsw, glw=glw, olr=olr, flops_estimate=flops
        )


def cosine_solar_zenith(
    lat: np.ndarray, lon: np.ndarray, time_of_day: float, day_of_year: float = 80.0
) -> np.ndarray:
    """Cosine of the solar zenith angle.

    ``time_of_day`` in seconds since 00 UTC; simple declination cycle.
    """
    decl = np.deg2rad(23.44) * np.sin(2.0 * np.pi * (day_of_year - 81.0) / 365.25)
    hour_angle = 2.0 * np.pi * (time_of_day / 86400.0) + lon - np.pi
    cz = np.sin(lat) * np.sin(decl) + np.cos(lat) * np.cos(decl) * np.cos(hour_angle)
    return np.clip(cz, 0.0, 1.0)
