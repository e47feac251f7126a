//! An embedded gazetteer: countries, first-level regions and cities.
//!
//! Coordinates are geographic centres (approximate), `mean_radius_km` is the
//! average distance of a point in the location from its centre (the second
//! component of the paper's *corrected distance*, §3.3.3), and populations
//! are rough 2020s figures in millions, used for homonym disambiguation and
//! for the population model of Fig 7.
//!
//! The table covers every location that appears in the paper's figures
//! (Figs 2, 9–12) and server tables (Tables 6–7), plus enough filler for a
//! realistic synthetic world.

use std::collections::HashMap;
use tero_types::{Continent, LatLon, Location};

/// What kind of place a gazetteer row describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlaceKind {
    /// A country.
    Country,
    /// A first-level administrative region (state, canton, province…).
    Region,
    /// A city.
    City,
}

/// One resolved gazetteer place.
#[derive(Debug, Clone, PartialEq)]
pub struct Place {
    /// The kind of place.
    pub kind: PlaceKind,
    /// The location tuple, filled to this place's granularity.
    pub location: Location,
    /// Geographic centre.
    pub center: LatLon,
    /// Mean distance of a point in the place from its centre, km.
    pub mean_radius_km: f64,
    /// Approximate population in millions (0 when unknown).
    pub population_m: f64,
    /// Continent.
    pub continent: Continent,
}

// (name, iso2, continent, lat, lon, mean_radius_km, population_m, aliases)
type CountryRow = (
    &'static str,
    &'static str,
    Continent,
    f64,
    f64,
    f64,
    f64,
    &'static [&'static str],
);

// (country, name, lat, lon, mean_radius_km, population_m, aliases)
type RegionRow = (
    &'static str,
    &'static str,
    f64,
    f64,
    f64,
    f64,
    &'static [&'static str],
);

// (country, region, name, lat, lon, mean_radius_km, population_m, aliases)
type CityRow = (
    &'static str,
    &'static str,
    &'static str,
    f64,
    f64,
    f64,
    f64,
    &'static [&'static str],
);

use Continent::*;

const COUNTRIES: &[CountryRow] = &[
    (
        "United States",
        "US",
        NorthAmerica,
        39.8,
        -98.6,
        1100.0,
        331.0,
        &["USA", "US", "America", "United States of America"],
    ),
    (
        "Canada",
        "CA",
        NorthAmerica,
        56.1,
        -106.3,
        1400.0,
        38.0,
        &[],
    ),
    (
        "Mexico",
        "MX",
        NorthAmerica,
        23.6,
        -102.6,
        650.0,
        128.0,
        &[],
    ),
    (
        "Guatemala",
        "GT",
        NorthAmerica,
        15.8,
        -90.2,
        150.0,
        17.0,
        &[],
    ),
    (
        "El Salvador",
        "SV",
        NorthAmerica,
        13.8,
        -88.9,
        70.0,
        6.5,
        &[],
    ),
    (
        "Honduras",
        "HN",
        NorthAmerica,
        14.8,
        -86.6,
        150.0,
        10.0,
        &[],
    ),
    (
        "Nicaragua",
        "NI",
        NorthAmerica,
        12.9,
        -85.2,
        160.0,
        6.6,
        &[],
    ),
    (
        "Costa Rica",
        "CR",
        NorthAmerica,
        9.7,
        -84.2,
        100.0,
        5.1,
        &[],
    ),
    ("Panama", "PA", NorthAmerica, 8.5, -80.1, 120.0, 4.3, &[]),
    ("Jamaica", "JM", NorthAmerica, 18.1, -77.3, 50.0, 3.0, &[]),
    ("Cuba", "CU", NorthAmerica, 21.5, -79.5, 180.0, 11.3, &[]),
    (
        "Dominican Republic",
        "DO",
        NorthAmerica,
        18.7,
        -70.2,
        90.0,
        10.8,
        &[],
    ),
    (
        "Puerto Rico",
        "PR",
        NorthAmerica,
        18.2,
        -66.4,
        60.0,
        3.2,
        &[],
    ),
    ("Colombia", "CO", SouthAmerica, 4.6, -74.1, 470.0, 50.9, &[]),
    (
        "Venezuela",
        "VE",
        SouthAmerica,
        6.4,
        -66.6,
        420.0,
        28.4,
        &[],
    ),
    ("Ecuador", "EC", SouthAmerica, -1.8, -78.2, 230.0, 17.6, &[]),
    ("Peru", "PE", SouthAmerica, -9.2, -75.0, 500.0, 33.0, &[]),
    (
        "Bolivia",
        "BO",
        SouthAmerica,
        -16.3,
        -63.6,
        460.0,
        11.7,
        &[],
    ),
    ("Chile", "CL", SouthAmerica, -35.7, -71.5, 600.0, 19.1, &[]),
    (
        "Argentina",
        "AR",
        SouthAmerica,
        -38.4,
        -63.6,
        730.0,
        45.4,
        &[],
    ),
    ("Uruguay", "UY", SouthAmerica, -32.5, -55.8, 190.0, 3.5, &[]),
    (
        "Paraguay",
        "PY",
        SouthAmerica,
        -23.4,
        -58.4,
        280.0,
        7.1,
        &[],
    ),
    (
        "Brazil",
        "BR",
        SouthAmerica,
        -14.2,
        -51.9,
        1300.0,
        212.6,
        &["Brasil"],
    ),
    (
        "United Kingdom",
        "GB",
        Europe,
        54.0,
        -2.5,
        310.0,
        67.2,
        &["UK", "Great Britain", "England", "Britain"],
    ),
    ("Ireland", "IE", Europe, 53.4, -8.2, 130.0, 5.0, &[]),
    ("France", "FR", Europe, 46.2, 2.2, 330.0, 67.4, &[]),
    ("Spain", "ES", Europe, 40.5, -3.7, 320.0, 47.4, &["España"]),
    ("Portugal", "PT", Europe, 39.4, -8.2, 150.0, 10.3, &[]),
    (
        "Germany",
        "DE",
        Europe,
        51.2,
        10.5,
        270.0,
        83.2,
        &["Deutschland"],
    ),
    (
        "Netherlands",
        "NL",
        Europe,
        52.1,
        5.3,
        90.0,
        17.4,
        &["Holland", "The Netherlands"],
    ),
    ("Belgium", "BE", Europe, 50.5, 4.5, 80.0, 11.6, &[]),
    (
        "Luxembourg",
        "LU",
        Europe,
        49.8,
        6.1,
        25.0,
        0.6,
        &["Luxemburg"],
    ),
    (
        "Switzerland",
        "CH",
        Europe,
        46.8,
        8.2,
        90.0,
        8.6,
        &["Schweiz", "Suisse"],
    ),
    ("Austria", "AT", Europe, 47.5, 14.6, 130.0, 8.9, &[]),
    ("Italy", "IT", Europe, 42.8, 12.8, 330.0, 59.6, &["Italia"]),
    ("Greece", "GR", Europe, 39.1, 22.0, 180.0, 10.7, &["Hellas"]),
    ("Denmark", "DK", Europe, 56.0, 10.0, 100.0, 5.8, &[]),
    ("Norway", "NO", Europe, 64.5, 13.0, 400.0, 5.4, &[]),
    ("Sweden", "SE", Europe, 62.0, 15.0, 380.0, 10.4, &[]),
    ("Finland", "FI", Europe, 64.0, 26.0, 320.0, 5.5, &[]),
    ("Poland", "PL", Europe, 52.1, 19.4, 240.0, 38.0, &["Polska"]),
    (
        "Czechia",
        "CZ",
        Europe,
        49.8,
        15.5,
        130.0,
        10.7,
        &["Czech Republic"],
    ),
    ("Slovakia", "SK", Europe, 48.7, 19.7, 110.0, 5.5, &[]),
    ("Hungary", "HU", Europe, 47.2, 19.5, 130.0, 9.7, &[]),
    ("Romania", "RO", Europe, 45.9, 25.0, 210.0, 19.2, &[]),
    ("Bulgaria", "BG", Europe, 42.7, 25.5, 140.0, 6.9, &[]),
    ("Ukraine", "UA", Europe, 48.4, 31.2, 330.0, 43.7, &[]),
    ("Lithuania", "LT", Europe, 55.2, 23.9, 110.0, 2.8, &[]),
    ("Latvia", "LV", Europe, 56.9, 24.6, 110.0, 1.9, &[]),
    ("Estonia", "EE", Europe, 58.6, 25.0, 90.0, 1.3, &[]),
    ("Turkey", "TR", Asia, 39.0, 35.2, 390.0, 84.3, &["Türkiye"]),
    (
        "Saudi Arabia",
        "SA",
        Asia,
        23.9,
        45.1,
        620.0,
        34.8,
        &["Arabia", "KSA"],
    ),
    (
        "United Arab Emirates",
        "AE",
        Asia,
        24.0,
        54.0,
        130.0,
        9.9,
        &["UAE", "Emirates"],
    ),
    ("Israel", "IL", Asia, 31.0, 34.9, 80.0, 9.2, &[]),
    ("Iran", "IR", Asia, 32.4, 53.7, 570.0, 84.0, &[]),
    ("India", "IN", Asia, 20.6, 79.0, 780.0, 1380.0, &[]),
    ("China", "CN", Asia, 35.9, 104.2, 1300.0, 1402.0, &[]),
    ("Japan", "JP", Asia, 36.2, 138.3, 290.0, 125.8, &["Nippon"]),
    (
        "South Korea",
        "KR",
        Asia,
        35.9,
        127.8,
        140.0,
        51.8,
        &["Korea", "Republic of Korea"],
    ),
    ("Taiwan", "TW", Asia, 23.7, 121.0, 90.0, 23.6, &[]),
    ("Philippines", "PH", Asia, 12.9, 121.8, 280.0, 109.6, &[]),
    ("Vietnam", "VN", Asia, 14.1, 108.3, 280.0, 97.3, &[]),
    ("Thailand", "TH", Asia, 15.9, 100.9, 310.0, 69.8, &[]),
    ("Malaysia", "MY", Asia, 4.2, 102.0, 260.0, 32.4, &[]),
    ("Singapore", "SG", Asia, 1.35, 103.8, 15.0, 5.7, &[]),
    ("Indonesia", "ID", Asia, -0.8, 113.9, 640.0, 273.5, &[]),
    (
        "Australia",
        "AU",
        Oceania,
        -25.3,
        133.8,
        1300.0,
        25.7,
        &["Aussie", "Oz"],
    ),
    (
        "New Zealand",
        "NZ",
        Oceania,
        -40.9,
        174.9,
        240.0,
        5.1,
        &["NZ"],
    ),
    ("Egypt", "EG", Africa, 26.8, 30.8, 450.0, 102.3, &[]),
    ("Morocco", "MA", Africa, 31.8, -7.1, 300.0, 36.9, &[]),
    ("Nigeria", "NG", Africa, 9.1, 8.7, 430.0, 206.1, &[]),
    ("Kenya", "KE", Africa, -0.02, 37.9, 340.0, 53.8, &[]),
    ("South Africa", "ZA", Africa, -30.6, 22.9, 500.0, 59.3, &[]),
    ("Russia", "RU", Europe, 61.5, 105.3, 2500.0, 144.1, &[]),
];

const REGIONS: &[RegionRow] = &[
    // US states appearing in Figs 9-10 (plus a few more for realism).
    (
        "United States",
        "California",
        36.8,
        -119.4,
        280.0,
        39.5,
        &["Cali", "CA"],
    ),
    ("United States", "Texas", 31.5, -99.3, 310.0, 29.1, &["TX"]),
    (
        "United States",
        "Illinois",
        40.0,
        -89.2,
        180.0,
        12.7,
        &["IL"],
    ),
    ("United States", "Hawaii", 20.8, -156.3, 120.0, 1.4, &["HI"]),
    (
        "United States",
        "District of Columbia",
        38.9,
        -77.0,
        10.0,
        0.7,
        &["DC", "Washington DC"],
    ),
    (
        "United States",
        "Georgia",
        32.6,
        -83.4,
        180.0,
        10.6,
        &["GA"],
    ),
    (
        "United States",
        "Kentucky",
        37.5,
        -85.3,
        170.0,
        4.5,
        &["KY"],
    ),
    (
        "United States",
        "Minnesota",
        46.3,
        -94.3,
        220.0,
        5.6,
        &["MN"],
    ),
    (
        "United States",
        "Missouri",
        38.4,
        -92.5,
        190.0,
        6.2,
        &["MO"],
    ),
    (
        "United States",
        "North Carolina",
        35.5,
        -79.4,
        190.0,
        10.4,
        &["NC"],
    ),
    (
        "United States",
        "Pennsylvania",
        40.9,
        -77.8,
        170.0,
        13.0,
        &["PA"],
    ),
    (
        "United States",
        "Tennessee",
        35.9,
        -86.4,
        180.0,
        6.8,
        &["TN"],
    ),
    (
        "United States",
        "Virginia",
        37.5,
        -78.9,
        170.0,
        8.5,
        &["VA"],
    ),
    (
        "United States",
        "Massachusetts",
        42.3,
        -71.8,
        80.0,
        6.9,
        &["MA"],
    ),
    (
        "United States",
        "New Jersey",
        40.1,
        -74.7,
        80.0,
        8.9,
        &["NJ"],
    ),
    (
        "United States",
        "Oklahoma",
        35.6,
        -97.5,
        210.0,
        4.0,
        &["OK"],
    ),
    (
        "United States",
        "New York",
        42.9,
        -75.6,
        180.0,
        19.5,
        &["NY", "New York State"],
    ),
    (
        "United States",
        "Florida",
        28.6,
        -82.4,
        230.0,
        21.5,
        &["FL"],
    ),
    (
        "United States",
        "Washington",
        47.4,
        -120.5,
        200.0,
        7.6,
        &["WA", "Washington State"],
    ),
    ("United States", "Ohio", 40.4, -82.8, 160.0, 11.7, &["OH"]),
    (
        "United States",
        "Michigan",
        44.3,
        -85.4,
        220.0,
        10.0,
        &["MI"],
    ),
    (
        "United States",
        "Arizona",
        34.3,
        -111.7,
        230.0,
        7.3,
        &["AZ"],
    ),
    (
        "United States",
        "Colorado",
        39.0,
        -105.5,
        210.0,
        5.8,
        &["CO"],
    ),
    ("United States", "Utah", 39.3, -111.7, 190.0, 3.3, &["UT"]),
    (
        "United States",
        "Montana",
        47.0,
        -109.6,
        260.0,
        1.1,
        &["MT"],
    ),
    (
        "United States",
        "Wisconsin",
        44.6,
        -89.9,
        180.0,
        5.9,
        &["WI"],
    ),
    ("United States", "Indiana", 39.9, -86.3, 150.0, 6.8, &["IN"]),
    (
        "United States",
        "Louisiana",
        31.0,
        -92.0,
        170.0,
        4.6,
        &["LA"],
    ),
    // Canada.
    ("Canada", "Ontario", 44.2, -79.5, 280.0, 14.7, &["ON"]), // population-weighted centre (Golden Horseshoe)
    (
        "Canada",
        "Quebec",
        52.9,
        -71.9,
        600.0,
        8.6,
        &["QC", "Québec"],
    ),
    (
        "Canada",
        "British Columbia",
        54.7,
        -125.6,
        450.0,
        5.1,
        &["BC"],
    ),
    ("Canada", "Alberta", 53.9, -116.6, 360.0, 4.4, &["AB"]),
    // Europe (Fig 2 / Fig 11).
    (
        "France",
        "Ile-de-France",
        48.7,
        2.5,
        35.0,
        12.2,
        &["Île-de-France", "Paris region", "IDF"],
    ),
    ("France", "Provence", 43.9, 6.0, 90.0, 5.1, &["PACA"]),
    ("France", "Brittany", 48.2, -2.9, 90.0, 3.4, &["Bretagne"]),
    (
        "Spain",
        "Catalunya",
        41.8,
        1.5,
        90.0,
        7.7,
        &["Catalonia", "Cataluña"],
    ),
    (
        "Spain",
        "Madrid",
        40.4,
        -3.7,
        45.0,
        6.7,
        &["Comunidad de Madrid"],
    ),
    ("Spain", "Andalusia", 37.5, -4.7, 150.0, 8.4, &["Andalucía"]),
    ("Germany", "Bavaria", 48.9, 11.4, 130.0, 13.1, &["Bayern"]),
    (
        "Germany",
        "North Rhine-Westphalia",
        51.5,
        7.6,
        100.0,
        17.9,
        &["NRW"],
    ),
    ("Germany", "Hesse", 50.6, 9.0, 80.0, 6.3, &["Hessen"]),
    (
        "Switzerland",
        "Geneva",
        46.2,
        6.1,
        15.0,
        0.5,
        &["Genève", "canton of Geneva"],
    ),
    ("Switzerland", "Zurich", 47.4, 8.5, 25.0, 1.5, &["Zürich"]),
    ("Switzerland", "Vaud", 46.6, 6.6, 35.0, 0.8, &[]),
    ("Italy", "Lombardy", 45.6, 9.8, 80.0, 10.0, &["Lombardia"]),
    ("Italy", "Lazio", 41.9, 12.8, 70.0, 5.9, &[]),
    (
        "United Kingdom",
        "Greater London",
        51.5,
        -0.1,
        22.0,
        8.9,
        &["London area"],
    ),
    ("United Kingdom", "Scotland", 56.8, -4.2, 180.0, 5.5, &[]),
    ("United Kingdom", "Wales", 52.3, -3.7, 90.0, 3.1, &[]),
    (
        "Poland",
        "Mazovia",
        52.2,
        21.1,
        100.0,
        5.4,
        &["Mazowieckie"],
    ),
    ("Poland", "Silesia", 50.3, 19.0, 70.0, 4.5, &["Śląskie"]),
    (
        "Netherlands",
        "North Holland",
        52.6,
        4.9,
        40.0,
        2.9,
        &["Noord-Holland"],
    ),
    (
        "Netherlands",
        "South Holland",
        52.0,
        4.5,
        35.0,
        3.7,
        &["Zuid-Holland"],
    ),
    // Latin America (Figs 2, 12).
    (
        "Argentina",
        "Buenos Aires",
        -36.7,
        -60.0,
        280.0,
        17.6,
        &["BA", "Provincia de Buenos Aires"],
    ),
    (
        "Argentina",
        "Cordoba",
        -32.1,
        -63.8,
        230.0,
        3.8,
        &["Córdoba"],
    ),
    (
        "Brazil",
        "Sao Paulo",
        -22.3,
        -48.8,
        250.0,
        46.3,
        &["São Paulo", "SP"],
    ),
    (
        "Brazil",
        "Rio de Janeiro",
        -22.2,
        -42.7,
        110.0,
        17.4,
        &["RJ", "Rio"],
    ),
    ("Brazil", "Minas Gerais", -18.5, -44.6, 330.0, 21.3, &["MG"]),
    ("Mexico", "Chiapas", 16.5, -92.5, 140.0, 5.5, &[]),
    ("Mexico", "Tabasco", 18.0, -92.6, 90.0, 2.4, &[]),
    ("Mexico", "Veracruz", 19.4, -96.4, 160.0, 8.1, &[]),
    ("Mexico", "Tamaulipas", 24.3, -98.6, 160.0, 3.5, &[]),
    ("Mexico", "Campeche", 18.9, -90.3, 130.0, 0.9, &[]),
    ("Mexico", "Quintana Roo", 19.6, -88.0, 120.0, 1.9, &[]),
    ("Mexico", "Yucatan", 20.7, -89.0, 110.0, 2.3, &["Yucatán"]),
    ("Mexico", "Jalisco", 20.6, -103.7, 140.0, 8.3, &[]),
    (
        "Mexico",
        "Nuevo Leon",
        25.6,
        -99.9,
        130.0,
        5.8,
        &["Nuevo León"],
    ),
    ("Colombia", "Magdalena", 10.4, -74.4, 90.0, 1.4, &[]),
    (
        "Colombia",
        "Atlantico",
        10.7,
        -75.0,
        40.0,
        2.7,
        &["Atlántico"],
    ),
    ("Colombia", "Bolivar", 8.7, -74.5, 130.0, 2.2, &["Bolívar"]),
    ("Colombia", "Antioquia", 7.0, -75.5, 130.0, 6.7, &[]),
    (
        "Honduras",
        "Francisco Morazan",
        14.2,
        -87.2,
        60.0,
        1.6,
        &["Francisco Morazán"],
    ),
    (
        "Chile",
        "Santiago Metropolitan",
        -33.5,
        -70.7,
        70.0,
        7.1,
        &["Region Metropolitana", "RM"],
    ),
    ("Peru", "Lima", -12.0, -76.9, 90.0, 10.1, &["Lima Region"]),
    // Asia / Oceania.
    (
        "South Korea",
        "Seoul Capital Area",
        37.5,
        127.0,
        45.0,
        26.0,
        &["Gyeonggi", "Sudogwon"],
    ),
    ("Japan", "Kanto", 35.9, 139.7, 110.0, 43.0, &["Kantō"]),
    ("Japan", "Kansai", 34.9, 135.6, 90.0, 22.0, &[]),
    ("Turkey", "Istanbul Province", 41.1, 28.9, 50.0, 15.5, &[]),
    ("Turkey", "Ankara Province", 39.9, 32.8, 80.0, 5.7, &[]),
    (
        "Australia",
        "New South Wales",
        -32.0,
        147.0,
        420.0,
        8.2,
        &["NSW"],
    ),
    ("Australia", "Victoria", -36.9, 144.3, 230.0, 6.7, &["VIC"]),
    (
        "Saudi Arabia",
        "Riyadh Province",
        24.0,
        46.0,
        280.0,
        8.6,
        &[],
    ),
];

const CITIES: &[CityRow] = &[
    // Game-server cities (Tables 6-7) and major hubs.
    (
        "Netherlands",
        "North Holland",
        "Amsterdam",
        52.37,
        4.90,
        9.0,
        0.87,
        &[],
    ),
    (
        "United States",
        "Illinois",
        "Chicago",
        41.88,
        -87.63,
        18.0,
        2.7,
        &["Chi-town"],
    ),
    (
        "Brazil",
        "Sao Paulo",
        "Sao Paulo",
        -23.55,
        -46.63,
        30.0,
        12.3,
        &["São Paulo"],
    ),
    (
        "United States",
        "Florida",
        "Miami",
        25.76,
        -80.19,
        15.0,
        0.45,
        &[],
    ),
    (
        "Chile",
        "Santiago Metropolitan",
        "Santiago",
        -33.45,
        -70.66,
        22.0,
        6.2,
        &["Santiago de Chile"],
    ),
    (
        "Australia",
        "New South Wales",
        "Sydney",
        -33.87,
        151.21,
        30.0,
        5.3,
        &[],
    ),
    (
        "Turkey",
        "Istanbul Province",
        "Istanbul",
        41.01,
        28.98,
        30.0,
        15.5,
        &[],
    ),
    (
        "South Korea",
        "Seoul Capital Area",
        "Seoul",
        37.57,
        126.98,
        18.0,
        9.7,
        &[],
    ),
    ("Japan", "Kanto", "Tokyo", 35.68, 139.69, 30.0, 13.9, &[]),
    (
        "United States",
        "Washington",
        "Seattle",
        47.61,
        -122.33,
        14.0,
        0.75,
        &[],
    ),
    (
        "Austria",
        "Vienna",
        "Vienna",
        48.21,
        16.37,
        13.0,
        1.9,
        &["Wien"],
    ),
    (
        "Luxembourg",
        "Luxembourg",
        "Luxembourg City",
        49.61,
        6.13,
        6.0,
        0.13,
        &["Luxemburg City"],
    ),
    ("Peru", "Lima", "Lima", -12.05, -77.04, 22.0, 9.7, &[]),
    (
        "United Arab Emirates",
        "Dubai",
        "Dubai",
        25.20,
        55.27,
        20.0,
        3.3,
        &[],
    ),
    (
        "Germany",
        "Hesse",
        "Frankfurt",
        50.11,
        8.68,
        10.0,
        0.75,
        &["Frankfurt am Main"],
    ),
    (
        "United States",
        "Utah",
        "Salt Lake City",
        40.76,
        -111.89,
        11.0,
        0.2,
        &["SLC"],
    ),
    (
        "United States",
        "California",
        "Los Angeles",
        34.05,
        -118.24,
        28.0,
        4.0,
        &["LA", "L.A."],
    ),
    (
        "United States",
        "California",
        "San Francisco",
        37.77,
        -122.42,
        10.0,
        0.87,
        &["SF", "Frisco"],
    ),
    (
        "United States",
        "Texas",
        "Dallas",
        32.78,
        -96.80,
        20.0,
        1.3,
        &[],
    ),
    (
        "United States",
        "Missouri",
        "St. Louis",
        38.63,
        -90.20,
        12.0,
        0.3,
        &["Saint Louis"],
    ),
    (
        "United States",
        "Ohio",
        "Columbus",
        39.96,
        -83.00,
        14.0,
        0.9,
        &["Colombus"],
    ),
    (
        "United States",
        "New York",
        "New York City",
        40.71,
        -74.01,
        21.0,
        8.4,
        &["NYC", "New York"],
    ),
    (
        "United States",
        "District of Columbia",
        "Washington",
        38.91,
        -77.04,
        10.0,
        0.7,
        &["Washington D.C.", "DC"],
    ),
    (
        "United States",
        "Georgia",
        "Atlanta",
        33.75,
        -84.39,
        14.0,
        0.5,
        &["ATL"],
    ),
    (
        "United Kingdom",
        "Greater London",
        "London",
        51.51,
        -0.13,
        18.0,
        8.9,
        &[],
    ),
    (
        "Belgium",
        "Brussels",
        "Brussels",
        50.85,
        4.35,
        9.0,
        1.2,
        &["Bruxelles"],
    ),
    (
        "France",
        "Ile-de-France",
        "Paris",
        48.86,
        2.35,
        11.0,
        2.2,
        &[],
    ),
    ("Spain", "Madrid", "Madrid", 40.42, -3.70, 14.0, 3.2, &[]),
    (
        "Sweden",
        "Stockholm",
        "Stockholm",
        59.33,
        18.07,
        12.0,
        0.98,
        &[],
    ),
    ("Italy", "Lazio", "Rome", 41.90, 12.50, 16.0, 2.8, &["Roma"]),
    (
        "Saudi Arabia",
        "Riyadh Province",
        "Riyadh",
        24.71,
        46.68,
        22.0,
        7.7,
        &[],
    ),
    // Other cities used by profiles and figures.
    (
        "United States",
        "Michigan",
        "Detroit",
        42.33,
        -83.05,
        14.0,
        0.67,
        &[],
    ),
    (
        "United States",
        "California",
        "San Diego",
        32.72,
        -117.16,
        15.0,
        1.4,
        &[],
    ),
    (
        "United States",
        "California",
        "Sacramento",
        38.58,
        -121.49,
        11.0,
        0.5,
        &[],
    ),
    (
        "United States",
        "Texas",
        "Austin",
        30.27,
        -97.74,
        14.0,
        0.98,
        &[],
    ),
    (
        "United States",
        "Texas",
        "Houston",
        29.76,
        -95.37,
        24.0,
        2.3,
        &[],
    ),
    (
        "United States",
        "Arizona",
        "Phoenix",
        33.45,
        -112.07,
        20.0,
        1.7,
        &[],
    ),
    (
        "United States",
        "Massachusetts",
        "Boston",
        42.36,
        -71.06,
        11.0,
        0.69,
        &[],
    ),
    (
        "United States",
        "Pennsylvania",
        "Philadelphia",
        39.95,
        -75.17,
        14.0,
        1.6,
        &["Philly"],
    ),
    (
        "United States",
        "Minnesota",
        "Minneapolis",
        44.98,
        -93.27,
        12.0,
        0.43,
        &[],
    ),
    (
        "United States",
        "Tennessee",
        "Nashville",
        36.16,
        -86.78,
        14.0,
        0.69,
        &[],
    ),
    (
        "United States",
        "North Carolina",
        "Charlotte",
        35.23,
        -80.84,
        14.0,
        0.88,
        &[],
    ),
    (
        "United States",
        "Colorado",
        "Denver",
        39.74,
        -104.99,
        14.0,
        0.73,
        &[],
    ),
    (
        "United States",
        "Hawaii",
        "Honolulu",
        21.31,
        -157.86,
        10.0,
        0.35,
        &[],
    ),
    (
        "United States",
        "Kentucky",
        "Louisville",
        38.25,
        -85.76,
        13.0,
        0.62,
        &[],
    ),
    (
        "United States",
        "Virginia",
        "Virginia Beach",
        36.85,
        -75.98,
        14.0,
        0.46,
        &[],
    ),
    (
        "United States",
        "New Jersey",
        "Newark",
        40.74,
        -74.17,
        9.0,
        0.31,
        &[],
    ),
    (
        "United States",
        "Oklahoma",
        "Oklahoma City",
        35.47,
        -97.52,
        17.0,
        0.68,
        &["OKC"],
    ),
    (
        "United States",
        "Montana",
        "Billings",
        45.78,
        -108.50,
        9.0,
        0.12,
        &[],
    ),
    (
        "United States",
        "Georgia",
        "Savannah",
        32.08,
        -81.09,
        10.0,
        0.15,
        &[],
    ),
    (
        "United States",
        "Wisconsin",
        "Milwaukee",
        43.04,
        -87.91,
        12.0,
        0.57,
        &[],
    ),
    (
        "Canada",
        "Ontario",
        "Toronto",
        43.65,
        -79.38,
        18.0,
        2.9,
        &[],
    ),
    ("Canada", "Ontario", "Ottawa", 45.42, -75.70, 13.0, 1.0, &[]),
    (
        "Canada",
        "Quebec",
        "Montreal",
        45.50,
        -73.57,
        16.0,
        1.8,
        &["Montréal"],
    ),
    (
        "Canada",
        "British Columbia",
        "Vancouver",
        49.28,
        -123.12,
        12.0,
        0.68,
        &[],
    ),
    (
        "Mexico",
        "Jalisco",
        "Guadalajara",
        20.67,
        -103.35,
        15.0,
        1.5,
        &[],
    ),
    (
        "Mexico",
        "Nuevo Leon",
        "Monterrey",
        25.67,
        -100.31,
        16.0,
        1.1,
        &[],
    ),
    (
        "Mexico",
        "Quintana Roo",
        "Cancun",
        21.16,
        -86.85,
        10.0,
        0.63,
        &["Cancún"],
    ),
    (
        "Mexico",
        "Yucatan",
        "Merida",
        20.97,
        -89.62,
        12.0,
        0.89,
        &["Mérida"],
    ),
    (
        "Colombia",
        "Atlantico",
        "Barranquilla",
        10.97,
        -74.80,
        12.0,
        1.2,
        &[],
    ),
    (
        "Colombia",
        "Bolivar",
        "Cartagena",
        10.39,
        -75.51,
        11.0,
        0.91,
        &[],
    ),
    (
        "Colombia",
        "Antioquia",
        "Medellin",
        6.25,
        -75.56,
        13.0,
        2.5,
        &["Medellín"],
    ),
    (
        "Honduras",
        "Francisco Morazan",
        "Tegucigalpa",
        14.07,
        -87.19,
        12.0,
        1.1,
        &[],
    ),
    (
        "El Salvador",
        "San Salvador",
        "San Salvador",
        13.69,
        -89.22,
        10.0,
        0.57,
        &[],
    ),
    (
        "Jamaica",
        "Kingston Parish",
        "Kingston",
        17.97,
        -76.79,
        9.0,
        0.59,
        &[],
    ),
    (
        "Costa Rica",
        "San Jose",
        "San Jose CR",
        9.93,
        -84.08,
        10.0,
        0.34,
        &["San José"],
    ),
    (
        "Nicaragua",
        "Managua",
        "Managua",
        12.14,
        -86.25,
        11.0,
        1.0,
        &[],
    ),
    (
        "Argentina",
        "Buenos Aires",
        "Buenos Aires City",
        -34.60,
        -58.38,
        16.0,
        3.1,
        &["CABA", "Buenos Aires"],
    ),
    (
        "Brazil",
        "Rio de Janeiro",
        "Rio de Janeiro City",
        -22.91,
        -43.17,
        22.0,
        6.7,
        &["Rio", "Rio de Janeiro"],
    ),
    (
        "Ecuador",
        "Pichincha",
        "Quito",
        -0.18,
        -78.47,
        13.0,
        1.9,
        &[],
    ),
    (
        "Ecuador",
        "Guayas",
        "Guayaquil",
        -2.19,
        -79.89,
        13.0,
        2.7,
        &[],
    ),
    (
        "Bolivia",
        "La Paz",
        "La Paz",
        -16.49,
        -68.12,
        12.0,
        0.79,
        &[],
    ),
    (
        "Chile",
        "Valparaiso",
        "Valparaiso",
        -33.05,
        -71.61,
        10.0,
        0.3,
        &["Valparaíso"],
    ),
    (
        "France",
        "Provence",
        "Marseille",
        43.30,
        5.37,
        14.0,
        0.87,
        &[],
    ),
    ("France", "Brittany", "Rennes", 48.11, -1.68, 9.0, 0.22, &[]),
    (
        "Spain",
        "Catalunya",
        "Barcelona",
        41.39,
        2.17,
        14.0,
        1.6,
        &["Barna"],
    ),
    (
        "Germany",
        "Bavaria",
        "Munich",
        48.14,
        11.58,
        13.0,
        1.5,
        &["München"],
    ),
    (
        "Germany",
        "North Rhine-Westphalia",
        "Cologne",
        50.94,
        6.96,
        12.0,
        1.1,
        &["Köln"],
    ),
    (
        "Switzerland",
        "Geneva",
        "Geneva City",
        46.20,
        6.14,
        7.0,
        0.2,
        &["Geneva", "Genève"],
    ),
    (
        "Switzerland",
        "Zurich",
        "Zurich City",
        47.37,
        8.54,
        9.0,
        0.43,
        &["Zurich", "Zürich"],
    ),
    (
        "Switzerland",
        "Vaud",
        "Lausanne",
        46.52,
        6.63,
        7.0,
        0.14,
        &[],
    ),
    (
        "Italy",
        "Lombardy",
        "Milan",
        45.46,
        9.19,
        13.0,
        1.4,
        &["Milano"],
    ),
    (
        "United Kingdom",
        "Scotland",
        "Glasgow",
        55.86,
        -4.25,
        11.0,
        0.63,
        &[],
    ),
    (
        "United Kingdom",
        "Greater London",
        "Croydon",
        51.37,
        -0.10,
        7.0,
        0.39,
        &[],
    ),
    (
        "Poland",
        "Mazovia",
        "Warsaw",
        52.23,
        21.01,
        13.0,
        1.8,
        &["Warszawa"],
    ),
    (
        "Poland",
        "Silesia",
        "Katowice",
        50.26,
        19.02,
        9.0,
        0.29,
        &[],
    ),
    (
        "Netherlands",
        "South Holland",
        "Rotterdam",
        51.92,
        4.48,
        11.0,
        0.65,
        &[],
    ),
    (
        "Greece",
        "Attica",
        "Athens",
        37.98,
        23.73,
        14.0,
        3.2,
        &["Athina"],
    ),
    (
        "Turkey",
        "Ankara Province",
        "Ankara",
        39.93,
        32.86,
        16.0,
        5.7,
        &[],
    ),
    (
        "South Korea",
        "Busan",
        "Busan",
        35.18,
        129.08,
        14.0,
        3.4,
        &["Pusan"],
    ),
    ("Japan", "Kansai", "Osaka", 34.69, 135.50, 14.0, 2.7, &[]),
    (
        "Australia",
        "Victoria",
        "Melbourne",
        -37.81,
        144.96,
        22.0,
        5.1,
        &[],
    ),
    (
        "New Zealand",
        "Auckland",
        "Auckland",
        -36.85,
        174.76,
        14.0,
        1.7,
        &[],
    ),
    (
        "Philippines",
        "Metro Manila",
        "Manila",
        14.60,
        120.98,
        14.0,
        1.8,
        &[],
    ),
    (
        "Singapore",
        "Singapore",
        "Singapore City",
        1.35,
        103.82,
        12.0,
        5.7,
        &["Singapore"],
    ),
    (
        "India",
        "Maharashtra",
        "Mumbai",
        19.08,
        72.88,
        18.0,
        12.5,
        &["Bombay"],
    ),
    (
        "Russia",
        "Moscow Oblast",
        "Moscow",
        55.76,
        37.62,
        22.0,
        12.5,
        &["Moskva"],
    ),
    (
        "Egypt",
        "Cairo Governorate",
        "Cairo",
        30.04,
        31.24,
        18.0,
        9.5,
        &[],
    ),
    (
        "South Africa",
        "Gauteng",
        "Johannesburg",
        -26.20,
        28.05,
        18.0,
        5.6,
        &["Joburg"],
    ),
];

/// The gazetteer: indexed collections of [`Place`]s with alias lookup.
#[derive(Debug)]
pub struct Gazetteer {
    places: Vec<Place>,
    /// lowercase name/alias → indices into `places`.
    by_name: HashMap<String, Vec<usize>>,
    /// country name → continent.
    country_continent: HashMap<String, Continent>,
}

impl Gazetteer {
    /// Build the embedded gazetteer. Cheap enough to call per test; share
    /// one instance in production code.
    pub fn new() -> Self {
        let mut places = Vec::new();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut country_continent = HashMap::new();

        let add = |place: Place,
                   names: Vec<String>,
                   by_name: &mut HashMap<String, Vec<usize>>,
                   places: &mut Vec<Place>| {
            let idx = places.len();
            places.push(place);
            for n in names {
                by_name.entry(n.to_lowercase()).or_default().push(idx);
            }
        };

        for &(name, _iso, continent, lat, lon, radius, pop, aliases) in COUNTRIES {
            country_continent.insert(name.to_string(), continent);
            let mut names = vec![name.to_string()];
            names.extend(aliases.iter().map(|a| a.to_string()));
            add(
                Place {
                    kind: PlaceKind::Country,
                    location: Location::country(name),
                    center: LatLon::new(lat, lon),
                    mean_radius_km: radius,
                    population_m: pop,
                    continent,
                },
                names,
                &mut by_name,
                &mut places,
            );
        }
        for &(country, name, lat, lon, radius, pop, aliases) in REGIONS {
            let continent = *country_continent.get(country).unwrap_or(&Continent::Europe);
            let mut names = vec![name.to_string()];
            names.extend(aliases.iter().map(|a| a.to_string()));
            add(
                Place {
                    kind: PlaceKind::Region,
                    location: Location::region(country, name),
                    center: LatLon::new(lat, lon),
                    mean_radius_km: radius,
                    population_m: pop,
                    continent,
                },
                names,
                &mut by_name,
                &mut places,
            );
        }
        for &(country, region, name, lat, lon, radius, pop, aliases) in CITIES {
            let continent = *country_continent.get(country).unwrap_or(&Continent::Europe);
            let mut names = vec![name.to_string()];
            names.extend(aliases.iter().map(|a| a.to_string()));
            add(
                Place {
                    kind: PlaceKind::City,
                    location: Location::city(country, region, name),
                    center: LatLon::new(lat, lon),
                    mean_radius_km: radius,
                    population_m: pop,
                    continent,
                },
                names,
                &mut by_name,
                &mut places,
            );
        }

        Gazetteer {
            places,
            by_name,
            country_continent,
        }
    }

    /// All places.
    pub fn places(&self) -> &[Place] {
        &self.places
    }

    /// Case-insensitive lookup of a name or alias; returns all homonyms.
    pub fn lookup(&self, name: &str) -> Vec<&Place> {
        self.by_name
            .get(&name.to_lowercase())
            .map(|idxs| idxs.iter().map(|&i| &self.places[i]).collect())
            .unwrap_or_default()
    }

    /// Lookup restricted to one kind.
    pub fn lookup_kind(&self, name: &str, kind: PlaceKind) -> Vec<&Place> {
        self.lookup(name)
            .into_iter()
            .filter(|p| p.kind == kind)
            .collect()
    }

    /// Resolve a [`Location`] tuple back to its most specific place row.
    pub fn resolve(&self, loc: &Location) -> Option<&Place> {
        // Try the most specific component first.
        if let Some(city) = &loc.city {
            if let Some(p) = self
                .lookup_kind(city, PlaceKind::City)
                .into_iter()
                .find(|p| p.location.country == loc.country)
            {
                return Some(p);
            }
        }
        if let Some(region) = &loc.region {
            if let Some(p) = self
                .lookup_kind(region, PlaceKind::Region)
                .into_iter()
                .find(|p| p.location.country == loc.country)
            {
                return Some(p);
            }
        }
        self.lookup_kind(&loc.country, PlaceKind::Country)
            .into_iter()
            .next()
    }

    /// Continent of a country (`None` for unknown countries).
    pub fn continent_of(&self, country: &str) -> Option<Continent> {
        self.country_continent.get(country).copied()
    }
}

impl Default for Gazetteer {
    fn default() -> Self {
        Gazetteer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_with_expected_sizes() {
        let g = Gazetteer::new();
        assert!(g.places().len() >= 230, "{} places", g.places().len());
        let countries = g.country_continent.len();
        assert!(countries >= 70, "{countries} countries");
    }

    #[test]
    fn lookup_by_name_and_alias() {
        let g = Gazetteer::new();
        let usa = g.lookup("usa");
        assert!(usa.iter().any(|p| p.location.country == "United States"));
        let la = g.lookup_kind("LA", PlaceKind::City);
        assert!(la
            .iter()
            .any(|p| p.location.city.as_deref() == Some("Los Angeles")));
        assert!(g.lookup("atlantis").is_empty());
    }

    #[test]
    fn homonyms_are_all_returned() {
        let g = Gazetteer::new();
        // "Buenos Aires" is both an Argentine province (region) and (via
        // alias) the city.
        let hits = g.lookup("Buenos Aires");
        assert!(hits.len() >= 2, "hits: {hits:?}");
        assert!(hits.iter().any(|p| p.kind == PlaceKind::Region));
        assert!(hits.iter().any(|p| p.kind == PlaceKind::City));
    }

    #[test]
    fn resolve_round_trips() {
        let g = Gazetteer::new();
        let chi = Location::city("United States", "Illinois", "Chicago");
        let p = g.resolve(&chi).unwrap();
        assert_eq!(p.kind, PlaceKind::City);
        assert!((p.center.lat - 41.88).abs() < 0.1);

        let region = Location::region("United States", "Texas");
        assert_eq!(g.resolve(&region).unwrap().kind, PlaceKind::Region);

        let country = Location::country("Japan");
        assert_eq!(g.resolve(&country).unwrap().kind, PlaceKind::Country);

        assert!(g.resolve(&Location::country("Atlantis")).is_none());
    }

    #[test]
    fn paper_figure_locations_present() {
        let g = Gazetteer::new();
        // Fig 9/10/11/12 anchors.
        for name in [
            "Seoul",
            "Chicago",
            "Amsterdam",
            "Santiago",
            "Bolivia",
            "Greece",
            "Saudi Arabia",
            "Hawaii",
            "Turkey",
            "Belgium",
            "Brazil",
            "Ecuador",
            "El Salvador",
            "Jamaica",
            "District of Columbia",
            "Missouri",
            "Ontario",
            "Texas",
            "Poland",
            "Switzerland",
            "Italy",
            "Montana",
            "Chiapas",
            "Quintana Roo",
            "Francisco Morazan",
        ] {
            assert!(!g.lookup(name).is_empty(), "missing {name}");
        }
    }

    #[test]
    fn server_cities_present() {
        let g = Gazetteer::new();
        for name in [
            "Amsterdam",
            "Chicago",
            "Sao Paulo",
            "Miami",
            "Santiago",
            "Sydney",
            "Istanbul",
            "Seoul",
            "Tokyo",
            "Seattle",
            "Vienna",
            "Luxembourg City",
            "Lima",
            "Dubai",
            "Frankfurt",
            "Salt Lake City",
            "Los Angeles",
            "San Francisco",
            "Dallas",
            "St. Louis",
            "Columbus",
            "New York City",
            "Washington",
            "Atlanta",
            "London",
            "Brussels",
            "Paris",
            "Madrid",
            "Stockholm",
            "Rome",
            "Riyadh",
        ] {
            assert!(
                !g.lookup_kind(name, PlaceKind::City).is_empty(),
                "missing server city {name}"
            );
        }
    }

    #[test]
    fn continents_assigned() {
        let g = Gazetteer::new();
        assert_eq!(g.continent_of("Brazil"), Some(Continent::SouthAmerica));
        assert_eq!(g.continent_of("Japan"), Some(Continent::Asia));
        assert_eq!(g.continent_of("Nowhere"), None);
        // Every place has a continent consistent with its country.
        for p in g.places() {
            if let Some(c) = g.continent_of(&p.location.country) {
                assert_eq!(p.continent, c, "{:?}", p.location);
            }
        }
    }

    #[test]
    fn mean_radius_positive() {
        let g = Gazetteer::new();
        assert!(g.places().iter().all(|p| p.mean_radius_km > 0.0));
    }
}
