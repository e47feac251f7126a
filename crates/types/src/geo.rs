//! Geodesic geometry: coordinates, great-circle distance, and the paper's
//! *corrected distance* (§3.3.3, following Rodríguez-Bachiller \[44\]).

use serde::{Deserialize, Serialize};

/// Mean Earth radius in kilometres (IUGG).
pub(crate) const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A latitude/longitude pair in degrees.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatLon {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl LatLon {
    /// Construct a coordinate, normalising longitude into `[-180, 180)` and
    /// clamping latitude into `[-90, 90]`.
    pub fn new(lat: f64, lon: f64) -> Self {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = (lon + 180.0) % 360.0;
        if lon < 0.0 {
            lon += 360.0;
        }
        LatLon {
            lat,
            lon: lon - 180.0,
        }
    }
}

/// Great-circle (haversine) distance between two points, in kilometres.
pub fn haversine_km(a: LatLon, b: LatLon) -> f64 {
    let (lat1, lon1) = (a.lat.to_radians(), a.lon.to_radians());
    let (lat2, lon2) = (b.lat.to_radians(), b.lon.to_radians());
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * h.sqrt().min(1.0).asin()
}

/// The paper's *corrected distance* between a streamer location and a server
/// location (§3.3.3): the geodesic distance between the geometric centres of
/// the two locations, **plus** the average distance of any point in the
/// streamer's location from that location's geometric centre.
///
/// The second component models the intra-location spread and matters most
/// when streamer and server are in the same place (plain geodesic distance
/// would be zero there). For a roughly disc-shaped location of radius `r`,
/// the average distance from the centre is `2r/3`.
pub fn corrected_distance_km(
    streamer_center: LatLon,
    server_center: LatLon,
    streamer_mean_radius_km: f64,
) -> f64 {
    haversine_km(streamer_center, server_center) + streamer_mean_radius_km.max(0.0)
}

/// Minimum one-way speed-of-light-in-fibre propagation delay in milliseconds
/// for a path of the given great-circle length. Uses c/1.5 (typical fibre
/// refractive index) and a path-stretch factor of 1 (callers add their own
/// stretch).
pub fn fiber_delay_ms(distance_km: f64) -> f64 {
    // Light in fibre: ~200,000 km/s  =>  0.005 ms per km, one way.
    distance_km * 0.005
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn zero_distance_to_self() {
        let p = LatLon::new(46.52, 6.63); // Lausanne
        assert!(haversine_km(p, p) < 1e-9);
    }

    #[test]
    fn known_city_pairs() {
        // Paris <-> London is ~344 km.
        let paris = LatLon::new(48.8566, 2.3522);
        let london = LatLon::new(51.5074, -0.1278);
        assert!(close(haversine_km(paris, london), 344.0, 6.0));

        // New York <-> Los Angeles is ~3936 km.
        let nyc = LatLon::new(40.7128, -74.0060);
        let la = LatLon::new(34.0522, -118.2437);
        assert!(close(haversine_km(nyc, la), 3_936.0, 30.0));

        // Antipodal-ish: distance bounded by half circumference.
        let a = LatLon::new(0.0, 0.0);
        let b = LatLon::new(0.0, 180.0);
        assert!(close(
            haversine_km(a, b),
            std::f64::consts::PI * EARTH_RADIUS_KM,
            1.0
        ));
    }

    #[test]
    fn symmetric() {
        let a = LatLon::new(35.0, 139.0);
        let b = LatLon::new(-33.0, 151.0);
        assert!(close(haversine_km(a, b), haversine_km(b, a), 1e-9));
    }

    #[test]
    fn longitude_normalisation() {
        let a = LatLon::new(10.0, 190.0); // wraps to -170
        assert!(close(a.lon, -170.0, 1e-9));
        let b = LatLon::new(10.0, -190.0); // wraps to 170
        assert!(close(b.lon, 170.0, 1e-9));
        let c = LatLon::new(95.0, 0.0); // clamps
        assert!(close(c.lat, 90.0, 1e-9));
    }

    #[test]
    fn corrected_distance_adds_spread() {
        let ams = LatLon::new(52.37, 4.90);
        // Streamer in Amsterdam playing on the Amsterdam server: geodesic
        // part is 0, so the corrected distance is exactly the mean radius.
        let d = corrected_distance_km(ams, ams, 7.5);
        assert!(close(d, 7.5, 1e-9));
        // Negative radius input is treated as zero.
        assert!(close(corrected_distance_km(ams, ams, -3.0), 0.0, 1e-9));
    }

    #[test]
    fn fiber_delay_reasonable() {
        // 1000 km of fibre one-way is about 5 ms.
        assert!(close(fiber_delay_ms(1_000.0), 5.0, 1e-9));
    }
}
